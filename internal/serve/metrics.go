package serve

import (
	"encoding/json"
	"expvar"
	"net/http"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/drift"
	"repro/internal/obs"
)

// Metrics aggregates the server's observability state. Request counts
// stay on expvar types for continuity with PR 1, but all latency
// tracking lives in an obs.Registry of fixed-bin log-space histograms —
// the same machinery the paper uses for performance distributions,
// pointed at the server itself. The set is owned by the server instance
// rather than published to the global expvar registry, so multiple
// servers (tests, loadgen self-hosting) never collide on variable
// names; /metrics renders a JSON snapshot of everything and
// /v1/metrics the raw registry.
type Metrics struct {
	start    time.Time
	requests *expvar.Map // by "METHOD /path"
	statuses *expvar.Map // by status code
	inFlight expvar.Int
	// saturated counts requests that found the worker pool full on
	// arrival (whether they eventually got a slot or were shed).
	saturated expvar.Int

	reg *obs.Registry
}

// NewMetrics returns an empty metrics set.
func NewMetrics() *Metrics {
	m := &Metrics{
		start:    clock(),
		requests: new(expvar.Map).Init(),
		statuses: new(expvar.Map).Init(),
		reg:      obs.NewRegistry(),
	}
	return m
}

// Registry exposes the underlying obs metrics registry (served raw by
// GET /v1/metrics, publishable via expvar by the binary).
func (m *Metrics) Registry() *obs.Registry { return m.reg }

// Observe records one completed request: the per-route expvar count,
// the status count, the per-route obs latency histogram, and the
// 4xx/5xx class counters.
func (m *Metrics) Observe(endpoint string, status int, d time.Duration) {
	m.requests.Add(endpoint, 1)
	m.statuses.Add(http.StatusText(status), 1)
	m.reg.Histogram("http.latency." + endpoint).Observe(d)
	switch {
	case status >= 500:
		m.reg.Counter("http.status.5xx").Inc()
	case status >= 400:
		m.reg.Counter("http.status.4xx").Inc()
	default:
		m.reg.Counter("http.status.2xx").Inc()
	}
}

// LatencySummary reports count, mean, and percentiles in milliseconds.
// Count, Mean, and Max are exact; the percentiles are interpolated from
// the obs histogram's log-space bins (a few percent relative error).
type LatencySummary struct {
	Count  int64   `json:"count"`
	MeanMS float64 `json:"mean_ms"`
	P50MS  float64 `json:"p50_ms"`
	P90MS  float64 `json:"p90_ms"`
	P99MS  float64 `json:"p99_ms"`
	MaxMS  float64 `json:"max_ms"`
}

// summaryFromHist converts an obs histogram snapshot into the /metrics
// latency summary shape (kept stable since PR 1).
func summaryFromHist(h obs.HistSnapshot) LatencySummary {
	return LatencySummary{
		Count:  h.Count,
		MeanMS: h.MeanMS,
		P50MS:  h.P50MS,
		P90MS:  h.P90MS,
		P99MS:  h.P99MS,
		MaxMS:  h.MaxMS,
	}
}

// latencyPrefix is the registry-name prefix of per-route histograms.
const latencyPrefix = "http.latency."

// snapshot renders the metrics as one JSON-encodable value. cells is
// the drift manager's per-cell state (nil when no cell exists yet).
func (m *Metrics) snapshot(pred *core.Predictor, cells []drift.CellStatus, inFlight int64) map[string]any {
	counts := func(ev *expvar.Map) map[string]int64 {
		out := map[string]int64{}
		ev.Do(func(kv expvar.KeyValue) {
			if v, ok := kv.Value.(*expvar.Int); ok {
				out[kv.Key] = v.Value()
			}
		})
		return out
	}
	lat := map[string]LatencySummary{}
	for name, h := range m.reg.Snapshot().Histograms {
		if len(name) > len(latencyPrefix) && name[:len(latencyPrefix)] == latencyPrefix {
			lat[name[len(latencyPrefix):]] = summaryFromHist(h)
		}
	}
	cs := pred.CacheStats()
	deg := pred.Degraded()
	out := map[string]any{
		"uptime_seconds": clock.Since(m.start).Seconds(),
		"in_flight":      inFlight,
		"goroutines":     runtime.NumGoroutine(),
		"requests":       counts(m.requests),
		"statuses":       counts(m.statuses),
		"saturated":      m.saturated.Value(),
		"cache": map[string]uint64{
			"hits":   cs.Hits,
			"misses": cs.Misses,
		},
		"degraded": map[string]any{
			"stale_served":  deg.StaleServed,
			"knn_served":    deg.KNNServed,
			"breakers_open": deg.BreakersOpen,
		},
		"latency": lat,
	}
	if reg := pred.ModelStore(); reg != nil {
		ss := reg.Stats()
		out["model_store"] = map[string]any{
			"hits":        ss.Hits,
			"disk_hits":   ss.DiskHits,
			"misses":      ss.Misses,
			"evictions":   ss.Evictions,
			"refreshes":   ss.Refreshes,
			"load_errors": ss.LoadErrors,
			"save_errors": ss.SaveErrors,
			"resident":    ss.Resident,
		}
	}
	if len(cells) > 0 {
		drifted, refitOK, refitFail, refitShed := 0, 0, 0, 0
		perCell := map[string]any{}
		now := clock()
		for i := range cells {
			c := &cells[i]
			if c.Tripped {
				drifted++
			}
			refitOK += c.RefitOK
			refitFail += c.RefitFail
			refitShed += c.RefitShed
			cellOut := map[string]any{
				"state":       c.State(),
				"ks":          c.KS,
				"w1":          c.W1,
				"window_fill": c.WindowFill,
				"accepted":    c.Accepted,
				"quarantined": c.Quarantined,
			}
			if c.HasRefit {
				cellOut["last_refit_age_ms"] = float64(now.Sub(c.LastRefit)) / float64(time.Millisecond)
			}
			perCell[c.Cell] = cellOut
		}
		out["drift"] = map[string]any{
			"cells":      len(cells),
			"drifted":    drifted,
			"refit_ok":   refitOK,
			"refit_fail": refitFail,
			"refit_shed": refitShed,
			"by_cell":    perCell,
		}
	}
	return out
}

// handleMetrics serves the JSON snapshot.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(s.metrics.snapshot(s.pred, s.drift.Snapshot(), s.metrics.inFlight.Value()))
}

// handleObsMetrics serves the raw obs registry: every counter, gauge,
// and latency histogram snapshot (per-route p50/p90/p95/p99), plus
// predictor cache counters mirrored in so one endpoint answers "how is
// the service behaving".
func (s *Server) handleObsMetrics(w http.ResponseWriter, _ *http.Request) {
	cs := s.pred.CacheStats()
	s.metrics.reg.Counter("predictor.cache.hits").Add(int64(cs.Hits) - s.metrics.reg.Counter("predictor.cache.hits").Value())
	s.metrics.reg.Counter("predictor.cache.misses").Add(int64(cs.Misses) - s.metrics.reg.Counter("predictor.cache.misses").Value())
	if reg := s.pred.ModelStore(); reg != nil {
		ss := reg.Stats()
		s.metrics.reg.Gauge("modelstore.hits").Set(float64(ss.Hits))
		s.metrics.reg.Gauge("modelstore.disk_hits").Set(float64(ss.DiskHits))
		s.metrics.reg.Gauge("modelstore.misses").Set(float64(ss.Misses))
		s.metrics.reg.Gauge("modelstore.evictions").Set(float64(ss.Evictions))
		s.metrics.reg.Gauge("modelstore.resident").Set(float64(ss.Resident))
	}
	// Drift aggregates only: metric names stay bounded as cells grow.
	// Per-cell detail lives in /v1/status and the /metrics by_cell block.
	if cells := s.drift.Snapshot(); len(cells) > 0 {
		drifted := 0
		for i := range cells {
			if cells[i].Tripped {
				drifted++
			}
		}
		s.metrics.reg.Gauge("drift.cells").Set(float64(len(cells)))
		s.metrics.reg.Gauge("drift.drifted").Set(float64(drifted))
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(s.metrics.reg.Snapshot())
}

// handleTraces serves the tracer's ring buffer of completed traces,
// oldest first, rendered as indented text trees.
func (s *Server) handleTraces(w http.ResponseWriter, _ *http.Request) {
	total, slow := s.tracer.Completed()
	resp := TracesResponse{Completed: total, Slow: slow}
	for _, root := range s.tracer.Traces() {
		resp.Traces = append(resp.Traces, root.Render())
	}
	writeJSON(w, http.StatusOK, resp)
}

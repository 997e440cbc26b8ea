package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/drift"
	"repro/internal/modelstore"
	"repro/internal/perfsim"
	"repro/internal/serve"
)

// checkEvery is how often an untraced routed read is also sent straight
// to its owner replica to hold the router's answer against it.
const checkEvery = 8

// bench is one run of one workload.
type bench struct {
	sp     *spec
	in     *inputs
	e      *env
	traced bool

	rec    *Recorder
	obs    *observations
	active *atomic.Bool // tracing on: handler spans and composed calls
	comp   *composer
	shadow *drift.Manager // traced runs time drift ingest on a copy
	// speed calibrates the host beside the load in untraced runs;
	// setups holds when each set-up started and ended.
	speed  *hostSpeed
	setups [][2]time.Time
	reqIDs atomic.Int64

	// refs holds the normalized reference answer of every key or batch.
	refs [][]byte
	dig  string

	mu         sync.Mutex
	attempted  int
	failed     int
	mismatches int
	shed503    int
	hits       int
	answers    int
	unverified int
	quarantine int
	ingested   int
	trips      map[drift.Key]time.Time
	noTrip     int
}

func (b *bench) count(ok, mismatch bool, status int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.attempted++
	if !ok {
		b.failed++
	}
	if mismatch {
		b.mismatches++
	}
	if status == http.StatusServiceUnavailable {
		b.shed503++
	}
}

func (b *bench) fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "e2ebench: "+format+"\n", args...)
}

// target returns the path, body and router key of key or batch i.
func (b *bench) target(i int) (path string, body []byte, route string) {
	if b.sp.batch {
		bt := &b.in.batches[i]
		return "/v1/predict/uc1/batch", bt.body, ""
	}
	k := &b.in.keys[i]
	return k.path, k.body, k.route
}

// reference sends every key or batch once more after set-up, checks the
// answer's structure, keeps it as the answer every later request for
// the same key must repeat, and digests the set. Through the router,
// each answer must also equal the owner replica's direct answer.
func (b *bench) reference(ctx context.Context, c *client) error {
	n := len(b.in.keys)
	if b.sp.batch {
		n = len(b.in.batches)
	}
	b.refs = make([][]byte, n)
	pairs := map[string][]byte{}
	for i := 0; i < n; i++ {
		path, body, route := b.target(i)
		status, resp, err := c.post(b.e.entry+path, body, -1)
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("status %d: %s", status, resp)
		}
		if err == nil {
			if b.sp.batch {
				err = checkBatch(&b.in.batches[i].req, resp)
			} else {
				err = checkPredict(&b.in.keys[i].req, b.in.keys[i].useCase, resp)
			}
		}
		if err != nil {
			return fmt.Errorf("reference answer for %.200s: %w", body, err)
		}
		b.refs[i] = normalize(resp)
		if b.e.router != nil {
			direct, err := b.e.owner(route).backend.Do(ctx, cluster.Request{Method: http.MethodPost, Path: path, Key: route, Body: body})
			if err != nil {
				return fmt.Errorf("direct reference answer: %w", err)
			}
			mismatch := !bytes.Equal(normalize(direct.Body), b.refs[i])
			b.count(!mismatch, mismatch, direct.Status)
			if mismatch {
				b.fail("router and owner replica disagree on %s", body)
			}
		}
		pairs[string(body)] = b.refs[i]
	}
	b.dig = digest(pairs)
	return nil
}

// guard is what must not change between two answers for them to be
// comparable through the router: the owner's refit activity, replica
// health, and the router's retry count.
type guard struct {
	epoch   int
	retries int64
	ok      bool
}

func (b *bench) guard(r *replica) guard {
	g := guard{ok: true, retries: b.e.metrics.Counter("cluster.retries").Value()}
	for _, c := range r.srv.Drift().Snapshot() {
		g.epoch += c.RefitOK + c.RefitFail + c.RefitShed
		if c.Refitting {
			g.ok = false
		}
	}
	for _, rs := range b.e.router.Snapshot().Replicas {
		if rs.State != "ready" {
			g.ok = false
		}
	}
	return g
}

func (g guard) same(h guard) bool {
	return g.ok && h.ok && g.epoch == h.epoch && g.retries == h.retries
}

// predict sends key or batch i and checks the answer. seq numbers the
// request within its phase. In a traced run, replay also rebuilds the
// answer from the composed public calls; the paced phase does not, as
// its schedule would otherwise wait on the replays.
func (b *bench) predict(ctx context.Context, c *client, i, seq int, replay bool, answered func()) bool {
	path, body, route := b.target(i)
	tracing := b.traced && b.active.Load()
	id := int64(-1)
	if tracing {
		id = b.reqIDs.Add(1)
	}
	var owner *replica
	var g0 guard
	checkDirect := b.e.router != nil && (tracing || seq%checkEvery == 0)
	if b.e.router != nil {
		owner = b.e.owner(route)
		if checkDirect {
			g0 = b.guard(owner)
		}
	} else {
		owner = b.e.reps[0]
	}
	status, resp, err := c.post(b.e.entry+path, body, id)
	answered()
	if err != nil || status != http.StatusOK {
		b.count(false, false, status)
		b.fail("predict %s: status %d err %v", path, status, err)
		return false
	}
	if tracing {
		b.obs.add("serve.request_kb", float64(len(body))/1024)
		b.obs.add("serve.response_kb", float64(len(resp))/1024)
	}
	mismatch := false
	if b.e.router == nil {
		mismatch = !bytes.Equal(normalize(resp), b.refs[i])
	} else if err := checkPredict(&b.in.keys[i].req, b.in.keys[i].useCase, resp); err != nil {
		b.fail("routed answer malformed: %v", err)
		mismatch = true
	}
	var direct, routed []byte
	if checkDirect && !mismatch {
		req := cluster.Request{Method: http.MethodPost, Path: path, Key: route, Body: body}
		if tracing {
			s := b.rec.Begin("cluster.route", id, -1)
			r, err := b.e.router.Do(ctx, req)
			b.rec.Finish(s)
			if err == nil {
				routed = r.Body
			}
		}
		s := b.rec.Begin("cluster.direct", id, -1)
		d, err := owner.backend.Do(ctx, req)
		b.rec.Finish(s)
		if err == nil {
			direct = d.Body
		}
	}
	var compErr error
	if tracing && replay && !mismatch {
		if b.sp.batch {
			compErr = b.comp.batch(ctx, owner.srv.Predictor(), &b.in.batches[i], id, resp)
		} else {
			compErr = b.comp.predict(ctx, owner.srv.Predictor(), &b.in.keys[i], id, resp)
		}
	}
	switch {
	case mismatch:
	case b.e.router == nil:
		if compErr != nil {
			b.fail("traced reconciliation: %v", compErr)
			mismatch = true
		}
	case checkDirect && g0.same(b.guard(owner)):
		// Nothing that changes answers happened between the routed answer
		// and the owner's direct and composed ones: all must agree.
		for _, other := range [][]byte{direct, routed} {
			if other != nil && !bytes.Equal(normalize(other), normalize(resp)) {
				b.fail("router and owner replica disagree on %s", body)
				mismatch = true
			}
		}
		if compErr != nil {
			b.fail("traced reconciliation: %v", compErr)
			mismatch = true
		}
	case checkDirect:
		b.mu.Lock()
		b.unverified++
		b.mu.Unlock()
	}
	b.mu.Lock()
	b.answers++
	if bytes.Contains(resp, []byte(`"cache":"hit"`)) {
		b.hits++
	}
	b.mu.Unlock()
	b.count(!mismatch, mismatch, status)
	return !mismatch
}

// ingest sends measurement batch ib and records when its cell tripped.
func (b *bench) ingest(ctx context.Context, c *client, ib *ingestBatch, answered func()) bool {
	status, resp, err := c.post(b.e.entry+"/v1/measurements", ib.body, -1)
	at := time.Now()
	answered()
	if err != nil || status != http.StatusOK {
		b.count(false, false, status)
		b.fail("ingest: status %d err %v", status, err)
		return false
	}
	r, err := checkIngest(&ib.req, resp)
	if err != nil {
		b.fail("%v", err)
		b.count(false, true, status)
		return false
	}
	key := drift.Key{System: ib.req.System, Benchmark: ib.req.Benchmark}
	if b.traced {
		runs := toRuns(ib.req.Runs)
		sd, _ := b.e.db.System(key.System)
		s := b.rec.Begin("drift.ingest", b.reqIDs.Add(1), -1)
		_, err := b.shadow.Ingest(ctx, key, runs, len(sd.MetricNames))
		b.rec.Finish(s)
		if err != nil {
			b.fail("shadow ingest: %v", err)
		}
	}
	b.mu.Lock()
	b.quarantine += r.Quarantined
	b.ingested += len(ib.req.Runs)
	if ib.last {
		if r.Drift != nil && r.Drift.RefitScheduled {
			b.trips[key] = at
		} else {
			b.noTrip++
		}
	}
	b.mu.Unlock()
	b.count(true, false, status)
	return true
}

// phaseResult is what the measured phases leave behind.
type phaseResult struct {
	closed, closedUntraced, paced, ingest []sample
	// drift is the drifting stream's batches.
	drift []sample
	// quiet is how many closed-loop reads ran before the producer
	// started and quietTime how long they took (untraced runs).
	quiet     int
	quietTime time.Duration
	// When each phase's clock started: its samples are offsets from it.
	closedStart, pacedStart, ingestStart time.Time
	lag                                  []time.Duration
	gcPauseMS, allocMB                   float64
	requests                             int
	fits, degraded                       uint64
}

// measure runs the closed, paced and ingest phases.
func (b *bench) measure(ctx context.Context, total time.Duration) *phaseResult {
	closedD, _, _, _ := b.sp.phases(total)
	quietD := b.sp.quiet(total)
	readers, producer := newClient(b.sp.readers), newClient(1)
	defer readers.close()
	defer producer.close()
	res := &phaseResult{}
	fits0, deg0 := b.e.fitsAndDegraded()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)

	var wg sync.WaitGroup
	var driftLag, ingestLag []time.Duration
	seqBase := 0
	send := func(seq int, answered func()) bool {
		seq += seqBase
		return b.predict(ctx, readers, b.in.closed[seq%len(b.in.closed)], seq, true, answered)
	}
	// The closed phase runs on one clock: first with writes idle (in a
	// traced run, its first third untraced, as a baseline for the
	// tracing overhead of the rest), then, where the producer streams
	// alongside, with the producer running.
	clk := newWallClock()
	res.closedStart = clk.start
	first := quietD
	if b.traced {
		first = closedD / 3
	}
	res.closedUntraced = closedLoop(clk, first, b.sp.closedReaders, send)
	res.quietTime = clk.now()
	seqBase = len(res.closedUntraced)
	runDrift := func() {
		res.drift, driftLag = openLoop(newWallClock(), b.in.driftDue, 1, func(i int, answered func()) bool {
			return b.ingest(ctx, producer, &b.in.drift[i], answered)
		})
	}
	if b.sp.ingestAlongside {
		wg.Add(1)
		go func() {
			defer wg.Done()
			runDrift()
		}()
	}
	b.active.Store(b.traced)
	res.closed = closedLoop(clk, closedD, b.sp.closedReaders, send)
	res.quiet = len(res.closedUntraced)
	if !b.traced {
		res.closed = append(res.closedUntraced, res.closed...)
		res.closedUntraced = nil
	}

	if b.sp.ingestAlongside {
		wg.Wait()
		b.e.waitRefits()
		// The paced phase measures routed reads with writes idle. Probe
		// now, as the next health tick would, so it does not start from
		// a replica the last probe saw mid-refit.
		if b.e.router != nil {
			b.e.router.ProbeAll(ctx)
		}
	}
	var pacedLag []time.Duration
	clk = newWallClock()
	res.pacedStart = clk.start
	res.paced, pacedLag = openLoop(clk, b.in.pacedDue, b.sp.readers, func(i int, answered func()) bool {
		return b.predict(ctx, readers, b.in.paced[i], i, false, answered)
	})
	clk = newWallClock()
	res.ingestStart = clk.start
	res.ingest, ingestLag = openLoop(clk, b.in.steadyDue, 1, func(i int, answered func()) bool {
		return b.ingest(ctx, producer, &b.in.steady[i], answered)
	})
	if !b.sp.ingestAlongside {
		runDrift()
	}
	b.e.waitRefits()
	runtime.ReadMemStats(&ms1)
	fits1, deg1 := b.e.fitsAndDegraded()
	res.lag = append(append(pacedLag, ingestLag...), driftLag...)
	res.gcPauseMS = float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e6
	res.requests = len(res.closed) + len(res.closedUntraced) + len(res.paced) + len(res.ingest) + len(res.drift)
	res.allocMB = float64(ms1.TotalAlloc-ms0.TotalAlloc) / (1 << 20)
	res.fits, res.degraded = fits1-fits0, deg1-deg0
	return res
}

// refitLags returns, for every cell the producer tripped, the time from
// the ingest answer that reported the trip to the refit completing, as
// the replicas' drift snapshots record it. With h, each lag is at the
// reference speed over its span.
func (b *bench) refitLags(h *hostSpeed) []float64 {
	var lags []float64
	for _, c := range b.e.cells() {
		at, ok := b.trips[drift.Key{System: c.System, Benchmark: c.Benchmark}]
		if ok && c.HasRefit && c.LastRefit.After(at) {
			lag := ms(c.LastRefit.Sub(at))
			if h != nil {
				lag *= h.scaleOver(at, c.LastRefit)
			}
			lags = append(lags, lag)
		}
	}
	return lags
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func latencies(ss []sample) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = ms(s.latency())
	}
	return out
}

// perRequest sums span durations by name within each request and
// returns, for one name, the per-request totals in milliseconds.
func perRequest(spans []Span, name string) []float64 {
	byReq := map[int64]float64{}
	var order []int64
	for _, s := range spans {
		if s.Name != name || s.End < 0 {
			continue
		}
		if _, seen := byReq[s.ReqID]; !seen {
			order = append(order, s.ReqID)
		}
		byReq[s.ReqID] += ms(s.Dur())
	}
	out := make([]float64, 0, len(order))
	for _, id := range order {
		out = append(out, byReq[id])
	}
	return out
}

// medianOr0 is the median, or 0 when the layer did no work in this
// workload.
func medianOr0(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return median(xs)
}

// layerMetrics computes the per-layer metrics of a traced run.
func (b *bench) layerMetrics(ctx context.Context, ph *phaseResult) ([]metric, error) {
	allocs, err := b.summaryAllocs(ctx)
	if err != nil {
		return nil, err
	}
	// Refit cost on its own: the same call the drift loop makes, once per
	// system, on the replica serving that system.
	for _, sys := range systemNames {
		r := b.e.owner(modelstore.DatasetKey(1, sys, ""))
		if r == nil {
			continue
		}
		s := b.rec.Begin("core.refit", b.reqIDs.Add(1), -1)
		err := r.srv.Predictor().RefitSystem(ctx, sys)
		b.rec.Finish(s)
		if err != nil {
			return nil, fmt.Errorf("refit %s: %w", sys, err)
		}
	}

	spans := b.rec.Spans()
	if err := b.rec.WriteJSONL(fmt.Sprintf(".bench_build/spans/%s.jsonl", b.sp.name)); err != nil {
		return nil, err
	}
	self := selfTimes(spans)
	// serve.unattributed: handler time the composed calls do not cover.
	covered := map[int64]float64{}
	handler := map[int64]float64{}
	for i, s := range spans {
		switch s.Name {
		case "compose":
			covered[s.ReqID] = ms(s.Dur() - self[i])
		case "serve.handler":
			if s.ReqID >= 0 {
				handler[s.ReqID] = ms(s.Dur())
			}
		}
	}
	var unattributed []float64
	for id, h := range handler {
		if c, ok := covered[id]; ok {
			unattributed = append(unattributed, h-c)
		}
	}
	var handlers []float64
	for _, s := range spans {
		if s.Name == "serve.handler" {
			handlers = append(handlers, ms(s.Dur()))
		}
	}
	if len(unattributed) == 0 && len(covered) > 0 {
		// Through the router the request number does not reach the
		// replica, so handler and composed calls pair up only in
		// aggregate.
		var cov []float64
		for _, c := range covered {
			cov = append(cov, c)
		}
		unattributed = []float64{medianOr0(handlers) - median(cov)}
	}

	cells := b.e.cells()
	var trips, refitOK, refitFail, refitShed int
	for _, c := range cells {
		trips += c.Trips
		refitOK += c.RefitOK
		refitFail += c.RefitFail
		refitShed += c.RefitShed
	}
	var hop, ownerRatio, retries, hedges, imbalance float64
	if b.e.router != nil {
		route := map[int64]float64{}
		var hops []float64
		for _, s := range spans {
			if s.Name == "cluster.route" {
				route[s.ReqID] = ms(s.Dur())
			}
		}
		for _, s := range spans {
			if r, ok := route[s.ReqID]; ok && s.Name == "cluster.direct" {
				hops = append(hops, r-ms(s.Dur()))
			}
		}
		hop = medianOr0(hops)
		req := float64(b.e.metrics.Counter("cluster.requests").Value())
		retries = float64(b.e.metrics.Counter("cluster.retries").Value())
		hedges = float64(b.e.metrics.Counter("cluster.hedges").Value())
		ownerRatio = (req - retries - hedges) / req
		var served []float64
		for _, r := range b.e.router.Snapshot().Replicas {
			served = append(served, float64(r.Served))
		}
		sort.Float64s(served)
		mean := 0.0
		for _, s := range served {
			mean += s / float64(len(served))
		}
		imbalance = served[len(served)-1] / mean
	}
	traced, untraced := latencies(ph.closed), latencies(ph.closedUntraced)
	lags := make([]float64, len(ph.lag))
	for i, l := range ph.lag {
		lags[i] = ms(l)
	}
	hitRatio, quarantined := 0.0, 0.0
	if b.answers > 0 {
		hitRatio = float64(b.hits) / float64(b.answers)
	}
	if b.ingested > 0 {
		quarantined = float64(b.quarantine) / float64(b.ingested)
	}
	lagP99 := 0.0
	if len(lags) > 0 {
		lagP99 = percentileOf(lags, 0.99)
	}
	return []metric{
		{"serve.handler_ms", medianOr0(handlers), "ms"},
		{"serve.decode_ms", medianOr0(perRequest(spans, "serve.decode")), "ms"},
		{"serve.encode_ms", medianOr0(perRequest(spans, "serve.encode")), "ms"},
		{"serve.request_kb", medianOr0(b.obs.get("serve.request_kb")), "kb"},
		{"serve.response_kb", medianOr0(b.obs.get("serve.response_kb")), "kb"},
		{"serve.unattributed_ms", medianOr0(unattributed), "ms"},
		{"serve.shed_503", float64(b.shed503), "count"},
		{"core.predict_ms", medianOr0(perRequest(spans, "core.predict")), "ms"},
		{"core.cache_hit_ratio", hitRatio, "ratio"},
		{"core.fits", float64(ph.fits), "count"},
		{"core.degraded_served", float64(ph.degraded), "count"},
		{"core.refit_ms", medianOr0(perRequest(spans, "core.refit")), "ms"},
		{"ml.scalar_slowdown", medianOr0(b.obs.get("ml.scalar_slowdown")), "ratio"},
		{"stats.summary_ms", medianOr0(perRequest(spans, "stats.summary")), "ms"},
		{"stats.kde_ms", medianOr0(perRequest(spans, "stats.kde")), "ms"},
		{"stats.kde_evals", medianOr0(b.obs.get("stats.kde_evals")), "count"},
		{"stats.quantiles_ms", medianOr0(perRequest(spans, "stats.quantiles")), "ms"},
		{"stats.histogram_ms", medianOr0(perRequest(spans, "stats.histogram")), "ms"},
		{"stats.moments_ms", medianOr0(perRequest(spans, "stats.moments")), "ms"},
		{"stats.scores_ms", medianOr0(perRequest(spans, "stats.scores")), "ms"},
		{"stats.summary_allocs", allocs, "count"},
		{"features.profile_ms", medianOr0(perRequest(spans, "features.profile")), "ms"},
		{"drift.ingest_ms", medianOr0(perRequest(spans, "drift.ingest")), "ms"},
		{"drift.trips", float64(trips), "count"},
		{"drift.refits_ok", float64(refitOK), "count"},
		{"drift.refits_failed", float64(refitFail), "count"},
		{"drift.refits_shed", float64(refitShed), "count"},
		{"measure.quarantined_ratio", quarantined, "ratio"},
		{"cluster.hop_ms", hop, "ms"},
		{"cluster.owner_ratio", ownerRatio, "ratio"},
		{"cluster.retries", retries, "count"},
		{"cluster.hedges", hedges, "count"},
		{"cluster.imbalance", imbalance, "ratio"},
		{"runtime.gc_pause_ms", ph.gcPauseMS, "ms"},
		{"runtime.alloc_mb_per_req", ph.allocMB / float64(ph.requests), "MB"},
		{"loadgen.lag_p99_ms", lagP99, "ms"},
		{"trace.overhead_p50_ms", medianOr0(traced) - medianOr0(untraced), "ms"},
	}, nil
}

// summaryAllocs counts the heap allocations of rebuilding one answer's
// summary from the predictor's output, with nothing else running; the
// least of a few tries, since the runtime's own background work can
// only add allocations.
func (b *bench) summaryAllocs(ctx context.Context) (float64, error) {
	quiet := &composer{}
	var rebuild func()
	if b.sp.batch {
		bt := &b.in.batches[0]
		preds, err := b.e.reps[0].srv.Predictor().PredictUC1ProfileBatch(ctx, bt.req.System, profiles(bt.req.Profiles), bt.req.N,
			uc1Config(bt.req.Model, bt.req.Representation, bt.req.Samples, bt.req.Bins, requestSeed(bt.req.Seed)))
		if err != nil {
			return 0, err
		}
		rebuild = func() { quiet.batchResponse(-1, -1, &bt.req, requestSeed(bt.req.Seed), preds) }
	} else {
		k := &b.in.keys[0]
		p, err := predictOn(ctx, b.e.owner(k.route).srv.Predictor(), k.useCase, &k.req)
		if err != nil {
			return 0, err
		}
		rebuild = func() { quiet.predictResponse(-1, -1, k.useCase, &k.req, requestSeed(k.req.Seed), p) }
	}
	best := uint64(1 << 62)
	var m0, m1 runtime.MemStats
	for try := 0; try < 3; try++ {
		runtime.ReadMemStats(&m0)
		rebuild()
		runtime.ReadMemStats(&m1)
		if n := m1.Mallocs - m0.Mallocs; n < best {
			best = n
		}
	}
	return float64(best), nil
}

func profiles(ps [][]serve.ProbeRun) [][]perfsim.Run {
	out := make([][]perfsim.Run, len(ps))
	for i, p := range ps {
		out[i] = toRuns(p)
	}
	return out
}

package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/drift"
	"repro/internal/perfsim"
)

// setups is how many times an untraced run sets its workload up;
// setup_s is the median. They are spread evenly over the run's
// processes (spec.processes), each process measuring the last set-up
// it made.
const setups = 3

// part is what one process of an untraced run measured; it reaches the
// parent as the last line of the process's standard output.
type part struct {
	SetupS []float64
	HeapMB float64
	// Latencies and refit lags, ms at the reference speed.
	Closed, Paced  []float64
	Ingest, Refits []float64
	// Quiet closed-loop reads ran with writes idle, in QuietS seconds
	// at the reference speed.
	Quiet         int
	QuietS        float64
	Attempted     int
	Failed        int
	Mismatches    int
	Trips, NoTrip int
	Unverified    int
	Digest        string
}

func newBench(sp *spec, seed uint64, total time.Duration, traced bool) *bench {
	return &bench{sp: sp, in: makeInputs(sp, seed, total), traced: traced,
		active: new(atomic.Bool), trips: map[drift.Key]time.Time{}}
}

func plain(h http.Handler) http.Handler { return h }

// prepare sets the workload up n times, keeping the last set-up,
// records the live heap, and takes the reference answers.
func (b *bench) prepare(ctx context.Context, wrap func(http.Handler) http.Handler, n int) (setupS []float64, heapMB float64, err error) {
	for i := 0; i < n; i++ {
		if b.e != nil {
			if err := b.e.close(); err != nil {
				return nil, 0, err
			}
		}
		runtime.GC()
		start := time.Now()
		if b.e, err = setUp(ctx, b.sp, b.in, wrap); err != nil {
			return nil, 0, err
		}
		b.setups = append(b.setups, [2]time.Time{start, time.Now()})
		setupS = append(setupS, time.Since(start).Seconds())
	}
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	heapMB = float64(mem.HeapAlloc) / (1 << 20)
	c := newClient(1)
	defer c.close()
	if err := b.reference(ctx, c); err != nil {
		b.e.close()
		return nil, 0, err
	}
	return setupS, heapMB, nil
}

// measurePart is one process of an untraced run.
func measurePart(ctx context.Context, sp *spec, seed uint64, total time.Duration) (p *part, err error) {
	b := newBench(sp, seed, total, false)
	if b.speed, err = startHostSpeed(); err != nil {
		return nil, err
	}
	defer func() {
		if cerr := b.speed.close(); err == nil && cerr != nil {
			p, err = nil, fmt.Errorf("calibration process: %w", cerr)
		}
	}()
	setupS, heapMB, err := b.prepare(ctx, plain, setups/sp.processes)
	if err != nil {
		return nil, err
	}
	ph := b.measure(ctx, total)
	h := b.speed
	if err := h.collect(); err != nil {
		b.e.close()
		return nil, err
	}
	if len(h.points) == 0 {
		b.e.close()
		return nil, fmt.Errorf("calibration process ran no slices")
	}
	for i, s := range b.setups {
		setupS[i] *= h.scaleOver(s[0], s[1])
	}
	closed := atReference(h, ph.closedStart, ph.closed)
	p = &part{
		SetupS: setupS, HeapMB: heapMB,
		Closed: closed, Paced: atReference(h, ph.pacedStart, ph.paced), Ingest: atReference(h, ph.ingestStart, ph.ingest),
		Refits:    b.refitLags(h),
		Quiet:     ph.quiet,
		QuietS:    ph.quietTime.Seconds() * h.scaleOver(ph.closedStart, ph.closedStart.Add(ph.quietTime)),
		Attempted: b.attempted, Failed: b.failed, Mismatches: b.mismatches,
		Trips: len(b.trips), NoTrip: b.noTrip, Unverified: b.unverified, Digest: b.dig,
	}
	costs := h.costs()
	fmt.Fprintf(os.Stderr, "e2ebench: %d calibration slices, cost quartiles %.0f %.0f %.0f ns; p50 as measured and at the reference speed: closed %.3f %.3f ms, paced %.3f %.3f ms\n",
		len(costs), percentileOf(costs, 0.25), median(costs), percentileOf(costs, 0.75),
		median(latencies(ph.closed)), median(closed), median(latencies(ph.paced)), median(p.Paced))
	return p, b.e.close()
}

// atReference returns the latencies of samples, offsets from start, in
// ms at the reference speed while each was waited for.
func atReference(h *hostSpeed, start time.Time, ss []sample) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = ms(s.latency()) * h.scaleOver(start.Add(s.due), start.Add(s.end))
	}
	return out
}

// runParts runs the untraced measurement as sp.processes fresh
// processes of this program, one after another, and pools what they
// measured.
func runParts(ctx context.Context, sp *spec, seed uint64, total time.Duration) (*result, error) {
	each := total / time.Duration(sp.processes)
	var parts []*part
	for k := 0; k < sp.processes; k++ {
		cmd := exec.CommandContext(ctx, os.Args[0], "--workload", sp.name, "--seed", strconv.FormatUint(seed, 10),
			"--seconds", strconv.FormatFloat(each.Seconds(), 'f', -1, 64), "--part")
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("measuring process %d: %w", k, err)
		}
		var p part
		if err := json.Unmarshal(lastLine(out), &p); err != nil {
			return nil, fmt.Errorf("measuring process %d: %w", k, err)
		}
		fmt.Fprintf(os.Stderr, "e2ebench: %s seed %d process %d: digest %s, closed %d, paced %d, ingest %d requests, trips %d (no trip %d), unverified %d\n",
			sp.name, seed, k, p.Digest, len(p.Closed), len(p.Paced), len(p.Ingest), p.Trips, p.NoTrip, p.Unverified)
		parts = append(parts, &p)
	}

	var setupS, heaps, closed, paced, ingest, refits []float64
	var quiet int
	var quietS float64
	res := &result{correct: true}
	for _, p := range parts {
		setupS, heaps = append(setupS, p.SetupS...), append(heaps, p.HeapMB)
		closed, paced = append(closed, p.Closed...), append(paced, p.Paced...)
		ingest, refits = append(ingest, p.Ingest...), append(refits, p.Refits...)
		quiet += p.Quiet
		quietS += p.QuietS
		res.attempted += p.Attempted
		res.failed += p.Failed
		if p.Mismatches > 0 || p.Digest != parts[0].Digest {
			res.correct = false
		}
	}
	if want, ok := recordedDigest(sp.name, seed); ok && want != parts[0].Digest {
		fmt.Fprintf(os.Stderr, "e2ebench: answer digest %s differs from the recorded %s\n", parts[0].Digest, want)
		res.correct = false
	}
	if len(closed) == 0 || len(paced) == 0 || len(ingest) == 0 || len(refits) == 0 {
		return nil, fmt.Errorf("a phase measured nothing: closed %d paced %d ingest %d refits %d",
			len(closed), len(paced), len(ingest), len(refits))
	}
	for _, t := range []struct {
		name string
		n    int
		q    float64
	}{{"predict", len(closed), sp.predictTail}, {"paced", len(paced), sp.pacedTail}, {"ingest", len(ingest), ingestTail}} {
		if got := tailPercentile(t.n); got < t.q {
			fmt.Fprintf(os.Stderr, "e2ebench: %s tail p%g has fewer than %d samples beyond it (%d samples support p%g)\n",
				t.name, t.q, minBeyond, t.n, got)
		}
	}
	res.metrics = []metric{
		{"setup_s", median(setupS), "s"},
		{"heap_mb", median(heaps), "MB"},
		{"predict_p50_ms", median(closed), "ms"},
		{"predict_tail_ms", percentileOf(closed, sp.predictTail/100), "ms"},
		{"predict_rps", float64(quiet) / quietS, "1/s"},
		{"paced_p50_ms", median(paced), "ms"},
		{"paced_tail_ms", percentileOf(paced, sp.pacedTail/100), "ms"},
		{"ingest_p50_ms", median(ingest), "ms"},
		{"ingest_tail_ms", percentileOf(ingest, ingestTail/100), "ms"},
		{"refit_lag_ms", median(refits), "ms"},
		{"ok_ratio", float64(res.attempted-res.failed) / float64(res.attempted), "ratio"},
	}
	return res, nil
}

func lastLine(out []byte) []byte {
	end := len(out)
	for end > 0 && (out[end-1] == '\n' || out[end-1] == '\r') {
		end--
	}
	start := end
	for start > 0 && out[start-1] != '\n' {
		start--
	}
	return out[start:end]
}

// runTraced is the traced run: one process, one set-up, the same phases
// with handler spans and every prediction replayed through the layers'
// public functions, reporting the per-layer metrics.
func runTraced(ctx context.Context, sp *spec, seed uint64, total time.Duration) (*result, error) {
	b := newBench(sp, seed, total, true)
	b.rec, b.obs = newRecorder(), newObservations()
	b.comp = &composer{rec: b.rec, obs: b.obs}
	wrap := func(h http.Handler) http.Handler { return &handlerSpans{rec: b.rec, active: b.active, next: h} }
	if _, _, err := b.prepare(ctx, wrap, 1); err != nil {
		return nil, err
	}
	db := b.e.db
	b.shadow = drift.NewManager(drift.Config{}, drift.Hooks{Baseline: func(k drift.Key) ([]perfsim.Run, error) {
		sd, _ := db.System(k.System)
		bd, ok := sd.Find(k.Benchmark)
		if !ok {
			return nil, fmt.Errorf("unknown cell %s", k)
		}
		return bd.Runs, nil
	}})
	ph := b.measure(ctx, total)
	fmt.Fprintf(os.Stderr, "e2ebench: %s seed %d traced: digest %s, closed %d, paced %d, ingest %d requests, trips %d (no trip %d), unverified %d\n",
		sp.name, seed, b.dig, len(ph.closed)+len(ph.closedUntraced), len(ph.paced), len(ph.ingest), len(b.trips), b.noTrip, b.unverified)
	res := &result{attempted: b.attempted, failed: b.failed, correct: b.mismatches == 0}
	if want, ok := recordedDigest(sp.name, seed); ok && want != b.dig {
		fmt.Fprintf(os.Stderr, "e2ebench: answer digest %s differs from the recorded %s\n", b.dig, want)
		res.correct = false
	}
	var err error
	res.metrics, err = b.layerMetrics(ctx, ph)
	// The slowdown is a ratio; the loop's own time says whether the
	// thread was already slow before the call.
	fmt.Fprintf(os.Stderr, "e2ebench: scalar probe before the predictor call: median %.1f us\n",
		medianOr0(b.obs.get("ml.probe_before_us")))
	if cerr := b.e.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	return res, nil
}

package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/features"
	"repro/internal/serve"
	"repro/internal/stats"
)

// observations collects per-request values that are not span
// durations (sizes, computed operation counts, ratios), by metric name.
type observations struct {
	mu   sync.Mutex
	vals map[string][]float64
}

func newObservations() *observations { return &observations{vals: map[string][]float64{}} }

func (o *observations) add(name string, v float64) {
	if o == nil {
		return
	}
	o.mu.Lock()
	o.vals[name] = append(o.vals[name], v)
	o.mu.Unlock()
}

func (o *observations) get(name string) []float64 {
	o.mu.Lock()
	defer o.mu.Unlock()
	return append([]float64(nil), o.vals[name]...)
}

// composer replays a prediction request through the public functions
// the handler calls, in the handler's order (decode, predictor,
// summary, encode), with a span around each call, and rebuilds the
// answer so it can be held against the HTTP body for the same request.
type composer struct {
	rec *Recorder
	obs *observations
}

// The server's summary: these quantile points, a 50-bin histogram,
// four moments and a 512-point KDE mode count with a 10% threshold.
var quantilePoints = []float64{0.01, 0.05, 0.25, 0.50, 0.75, 0.90, 0.95, 0.99}

const (
	defaultBins  = 50
	kdeGrid      = 512
	kdeThreshold = 0.1
)

// scalarProbe times a fixed loop of scalar float work. Timed on one
// locked OS thread right before and right after a predictor call, the
// ratio of the two shows whether the call left the thread's vector
// state making scalar code slow.
func scalarProbe() time.Duration {
	start := time.Now()
	x := 0.0
	for i := 0; i < 4096; i++ {
		x += math.Exp(-float64(i) * 1e-3)
	}
	probeSink = x
	return time.Since(start)
}

var probeSink float64

// onThread runs call between two scalar probes on one locked OS thread
// and records the call as a span.
func (c *composer) onThread(name string, req int64, parent int, call func()) {
	runtime.LockOSThread()
	before := scalarProbe()
	t0 := time.Now()
	call()
	t1 := time.Now()
	after := scalarProbe()
	runtime.UnlockOSThread()
	c.rec.Add(name, req, parent, t0, t1)
	c.obs.add("ml.scalar_slowdown", float64(after)/float64(before))
	c.obs.add("ml.probe_before_us", float64(before)/float64(time.Microsecond))
}

// summary rebuilds the distribution summary of one predicted sample.
func (c *composer) summary(req int64, parent int, xs []float64, bins int) (map[string]float64, *serve.HistogramJSON, serve.MomentsJSON, int) {
	s := c.rec.Begin("stats.quantiles", req, parent)
	vals := stats.Quantiles(xs, quantilePoints)
	q := make(map[string]float64, len(quantileNames))
	for i, name := range quantileNames {
		q[name] = vals[i]
	}
	c.rec.Finish(s)

	s = c.rec.Begin("stats.histogram", req, parent)
	h := histogram(xs, bins)
	c.rec.Finish(s)

	s = c.rec.Begin("stats.moments", req, parent)
	m := moments(xs)
	c.rec.Finish(s)

	modes := c.modes(req, parent, xs)
	return q, h, m, modes
}

func histogram(xs []float64, bins int) *serve.HistogramJSON {
	if bins <= 0 {
		bins = defaultBins
	}
	lo, hi := stats.MinMax(xs)
	if hi <= lo {
		hi = lo + 1e-9
	}
	h := stats.HistogramFromSample(xs, lo, hi, bins)
	density := make([]float64, bins)
	for i := range density {
		density[i] = h.Density(i)
	}
	return &serve.HistogramJSON{Lo: h.Lo, Hi: h.Hi, BinWidth: h.BinWidth(), Density: density}
}

func moments(xs []float64) serve.MomentsJSON {
	m := stats.ComputeMoments4(xs)
	return serve.MomentsJSON{Mean: m.Mean, Std: m.Std, Skew: m.Skew, Kurt: m.Kurt}
}

// modes counts KDE modes as the server does.
func (c *composer) modes(req int64, parent int, xs []float64) int {
	s := c.rec.Begin("stats.kde", req, parent)
	defer c.rec.Finish(s)
	if stats.StdDev(xs) == 0 {
		return 1
	}
	return stats.NewKDE(xs).CountModes(kdeGrid, kdeThreshold)
}

// kdeEvals is the number of kernel evaluations behind one mode count,
// computed rather than counted: kdeGrid grid points times n kernels.
func kdeEvals(xs []float64) float64 { return float64(kdeGrid * len(xs)) }

// encode renders v the way the server's writer does.
func (c *composer) encode(req int64, parent int, v any) []byte {
	s := c.rec.Begin("serve.encode", req, parent)
	defer c.rec.Finish(s)
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		panic(err) // response structs of numbers and strings cannot fail to encode
	}
	return buf.Bytes()
}

// reconcile holds the rebuilt answer against the HTTP body.
func reconcile(rebuilt, httpBody []byte) error {
	if !bytes.Equal(normalize(rebuilt), normalize(httpBody)) {
		return fmt.Errorf("answer rebuilt from the composed calls differs from the HTTP body")
	}
	return nil
}

// predictResponse rebuilds the server's answer to a single query from
// the predictor's output, with a span around every stats call.
func (c *composer) predictResponse(req int64, parent, useCase int, r *serve.PredictRequest, seed uint64, p *core.Prediction) *serve.PredictResponse {
	resp := &serve.PredictResponse{
		UseCase: useCase, System: r.System, Source: r.Source, Target: r.Target,
		Benchmark: r.Benchmark, Model: canonicalModel(r.Model), Representation: canonicalRep(r.Representation),
		Seed: seed, N: len(p.Predicted), Cache: "miss",
		Degraded: p.Degraded, Fallback: p.Fallback,
	}
	resp.Quantiles, resp.Histogram, resp.Moments, resp.Modes = c.summary(req, parent, p.Predicted, r.Bins)
	if p.CacheHit {
		resp.Cache = "hit"
	}
	if p.Actual != nil {
		s := c.rec.Begin("stats.scores", req, parent)
		ks := stats.KSStatistic(p.Predicted, p.Actual)
		w1 := stats.Wasserstein1(p.Predicted, p.Actual)
		c.rec.Finish(s)
		resp.KSVsMeasured, resp.W1VsMeasured = &ks, &w1
		s = c.rec.Begin("stats.moments", req, parent)
		m := moments(p.Actual)
		c.rec.Finish(s)
		resp.Measured = &serve.MeasuredJSON{N: len(p.Actual), Moments: m, Modes: c.modes(req, parent, p.Actual)}
	}
	return resp
}

// batchResponse rebuilds the server's answer to a batch.
func (c *composer) batchResponse(req int64, parent int, r *serve.BatchPredictRequest, seed uint64, preds []*core.Prediction) *serve.BatchPredictResponse {
	resp := &serve.BatchPredictResponse{
		UseCase: 1, System: r.System, Model: canonicalModel(r.Model), Representation: canonicalRep(r.Representation),
		Seed: seed, Count: len(preds), Cache: "miss",
		Degraded: preds[0].Degraded, Fallback: preds[0].Fallback,
	}
	if preds[0].CacheHit {
		resp.Cache = "hit"
	}
	for _, p := range preds {
		var x serve.BatchResultJSON
		x.N = len(p.Predicted)
		x.Quantiles, x.Histogram, x.Moments, x.Modes = c.summary(req, parent, p.Predicted, r.Bins)
		resp.Results = append(resp.Results, x)
	}
	return resp
}

func requestSeed(s uint64) uint64 {
	if s == 0 {
		return 1
	}
	return s
}

func uc1Config(model, rep string, samples, bins int, seed uint64) core.UC1Config {
	if samples <= 0 {
		samples = 10
	}
	return core.UC1Config{Rep: parseRep(rep), Model: parseModel(model), NumSamples: samples, Bins: bins, Seed: seed}
}

// predictOn asks pred for a single query's prediction, as the handler does.
func predictOn(ctx context.Context, pred *core.Predictor, useCase int, r *serve.PredictRequest) (*core.Prediction, error) {
	seed := requestSeed(r.Seed)
	if useCase == 1 {
		return pred.PredictUC1(ctx, r.System, r.Benchmark, uc1Config(r.Model, r.Representation, r.Samples, r.Bins, seed))
	}
	return pred.PredictUC2(ctx, r.Source, r.Target, r.Benchmark,
		core.UC2Config{Rep: parseRep(r.Representation), Model: parseModel(r.Model), Bins: r.Bins, Seed: seed})
}

// predict composes a single-query request on pred. The caller holds
// the HTTP answer to the same request in httpBody.
func (c *composer) predict(ctx context.Context, pred *core.Predictor, k *predictKey, req int64, httpBody []byte) error {
	root := c.rec.Begin("compose", req, -1)
	defer c.rec.Finish(root)

	s := c.rec.Begin("serve.decode", req, root)
	var r serve.PredictRequest
	err := json.Unmarshal(k.body, &r)
	c.rec.Finish(s)
	if err != nil {
		return fmt.Errorf("decode request: %w", err)
	}

	var p *core.Prediction
	c.onThread("core.predict", req, root, func() { p, err = predictOn(ctx, pred, k.useCase, &r) })
	if err != nil {
		return fmt.Errorf("predictor: %w", err)
	}

	sum := c.rec.Begin("stats.summary", req, root)
	resp := c.predictResponse(req, sum, k.useCase, &r, requestSeed(r.Seed), p)
	c.rec.Finish(sum)
	c.obs.add("stats.kde_evals", kdeEvals(p.Predicted)+kdeEvals(p.Actual))
	return reconcile(c.encode(req, root, resp), httpBody)
}

// batch composes a batch request on pred.
func (c *composer) batch(ctx context.Context, pred *core.Predictor, b *batchRequest, req int64, httpBody []byte) error {
	root := c.rec.Begin("compose", req, -1)
	defer c.rec.Finish(root)

	s := c.rec.Begin("serve.decode", req, root)
	var r serve.BatchPredictRequest
	err := json.Unmarshal(b.body, &r)
	probes := profiles(r.Profiles)
	c.rec.Finish(s)
	if err != nil {
		return fmt.Errorf("decode request: %w", err)
	}

	// The predictor builds the same profiles internally; building them
	// here as well times the features layer on its own, in a root of
	// its own because the handler does not do this work twice.
	sd, ok := pred.DB().System(r.System)
	if !ok {
		return fmt.Errorf("unknown system %q", r.System)
	}
	s = c.rec.Begin("features.profile", req, -1)
	for i := range probes {
		if _, err := features.FromRuns(probes[i], sd.MetricNames); err != nil {
			c.rec.Finish(s)
			return fmt.Errorf("profile %d: %w", i, err)
		}
	}
	c.rec.Finish(s)

	seed := requestSeed(r.Seed)
	var preds []*core.Prediction
	c.onThread("core.predict", req, root, func() {
		preds, err = pred.PredictUC1ProfileBatch(ctx, r.System, probes, r.N, uc1Config(r.Model, r.Representation, r.Samples, r.Bins, seed))
	})
	if err != nil {
		return fmt.Errorf("predictor: %w", err)
	}

	sum := c.rec.Begin("stats.summary", req, root)
	resp := c.batchResponse(req, sum, &r, seed, preds)
	c.rec.Finish(sum)
	evals := 0.0
	for _, p := range preds {
		evals += kdeEvals(p.Predicted)
	}
	c.obs.add("stats.kde_evals", evals)
	return reconcile(c.encode(req, root, resp), httpBody)
}

package main

import (
	"encoding/json"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/distrep"
	"repro/internal/modelstore"
	"repro/internal/perfsim"
	"repro/internal/randx"
	"repro/internal/serve"
)

// The campaign is the program's database, not a benchmark input: it is
// collected at the paper's size from one fixed seed so every workload
// seed predicts over the same data. --seed picks the queries, the
// probe profiles, the drifted measurements and the arrival schedules.
const (
	campaignSeed      = 1
	campaignRuns      = 1000
	campaignProbeRuns = 120
)

var systemNames = []string{"intel", "amd"}

func campaignSystems() []*perfsim.System {
	return []*perfsim.System{perfsim.NewIntelSystem(), perfsim.NewAMDSystem()}
}

// parseModel and parseRep mirror the server's request vocabulary; the
// benchmark needs them to compose the handler's calls itself.
func parseModel(name string) core.Model {
	switch strings.ToLower(name) {
	case "rf":
		return core.RandomForest
	case "xgboost":
		return core.XGBoost
	default:
		return core.KNN
	}
}

func parseRep(name string) distrep.Kind {
	switch strings.ToLower(name) {
	case "histogram":
		return distrep.Histogram
	case "pymaxent":
		return distrep.MaxEnt
	default:
		return distrep.PearsonRnd
	}
}

func canonicalModel(name string) string { return parseModel(name).String() }
func canonicalRep(name string) string   { return parseRep(name).String() }

// predictKey is one single-query prediction request: a (use case,
// system or system pair, benchmark, model, representation) cell.
type predictKey struct {
	useCase int
	path    string
	req     serve.PredictRequest
	body    []byte
	// route is the router's key for the request's dataset cell.
	route string
}

func newPredictKey(useCase int, req serve.PredictRequest) predictKey {
	body, err := json.Marshal(req)
	if err != nil {
		panic(err) // plain struct of strings: cannot fail
	}
	k := predictKey{useCase: useCase, req: req, body: body}
	if useCase == 1 {
		k.path = "/v1/predict/uc1"
		k.route = modelstore.DatasetKey(1, req.System, "")
	} else {
		k.path = "/v1/predict/uc2"
		k.route = modelstore.DatasetKey(2, req.Source, req.Target)
	}
	return k
}

// pickPredictKeys draws n distinct benchmark queries. Query i takes its
// use case, system and representation from a fixed rotation over every
// combination of use case 1 and 2, both systems and the paper's three
// representations, so each seed loads every dataset the same number of
// times and seeds differ only in which benchmarks they ask about. It
// uses models[i%len(models)].
func pickPredictKeys(rng *randx.RNG, n int, models []string) []predictKey {
	benches := perfsim.TableI()
	seen := map[string]bool{}
	var keys []predictKey
	for len(keys) < n {
		i := len(keys)
		uc := 1 + i%2
		sys := systemNames[(i/2)%2]
		req := serve.PredictRequest{
			Benchmark:      benches[rng.IntN(len(benches))].ID(),
			Model:          models[i%len(models)],
			Representation: []string{"pearsonrnd", "histogram", "pymaxent"}[(i/4)%3],
		}
		if uc == 1 {
			req.System = sys
		} else {
			req.Source, req.Target = sys, otherSystem(sys)
		}
		k := newPredictKey(uc, req)
		if seen[string(k.body)] {
			continue
		}
		seen[string(k.body)] = true
		keys = append(keys, k)
	}
	return keys
}

func otherSystem(s string) string {
	if s == systemNames[0] {
		return systemNames[1]
	}
	return systemNames[0]
}

// order is a closed-loop request sequence over n keys: every key once
// per round, rounds shuffled independently.
func order(rng *randx.RNG, n, length int) []int {
	out := make([]int, 0, length)
	for len(out) < length {
		out = append(out, rng.Perm(n)...)
	}
	return out[:length]
}

// arrivals is an open-loop schedule of due offsets at the given mean
// rate over d: each gap is the mean gap scaled by a uniform factor in
// [0.5, 1.5), so arrivals are irregular but never bunch into the long
// bursts an exponential schedule draws, which would make short runs
// disagree with each other.
func arrivals(rng *randx.RNG, rate float64, d time.Duration) []time.Duration {
	gap := float64(time.Second) / rate
	var out []time.Duration
	at := time.Duration(gap * rng.Uniform(0, 1))
	for at < d {
		out = append(out, at)
		at += time.Duration(gap * rng.Uniform(0.5, 1.5))
	}
	return out
}

func probeRuns(runs []perfsim.Run) []serve.ProbeRun {
	out := make([]serve.ProbeRun, len(runs))
	for i, r := range runs {
		out[i] = serve.ProbeRun{Seconds: r.Seconds, Metrics: r.Metrics}
	}
	return out
}

func toRuns(prs []serve.ProbeRun) []perfsim.Run {
	out := make([]perfsim.Run, len(prs))
	for i, p := range prs {
		out[i] = perfsim.Run{Seconds: p.Seconds, Metrics: p.Metrics}
	}
	return out
}

// Batch requests stop short of the server's caps.
const (
	maxBatchProfiles = 256
	maxBatchBytes    = 4 << 20
	batchProfileRuns = 10
	batchDecodeN     = 50
)

// batchRequest is one POST /v1/predict/uc1/batch body.
type batchRequest struct {
	req  serve.BatchPredictRequest
	body []byte
}

// makeBatches builds one batch per (system, model): raw 10-run probe
// profiles of Table I applications, as many as fit under both the
// 256-profile and the 4 MiB body cap. Applications are taken in turn, so
// every batch of every seed has the same mix and seeds differ only in
// the runs drawn.
func makeBatches(rng *randx.RNG, models []string) []batchRequest {
	benches := perfsim.TableI()
	var out []batchRequest
	for _, sys := range campaignSystems() {
		m := perfsim.NewMachine(sys)
		for _, model := range models {
			req := serve.BatchPredictRequest{System: sys.Name, Model: model, N: batchDecodeN}
			for len(req.Profiles) < maxBatchProfiles {
				w := benches[len(req.Profiles)%len(benches)]
				req.Profiles = append(req.Profiles, probeRuns(m.Bench(w).RunN(rng.Split(), batchProfileRuns)))
			}
			body, err := json.Marshal(req)
			if err != nil {
				panic(err)
			}
			for len(body) > maxBatchBytes {
				req.Profiles = req.Profiles[:len(req.Profiles)*maxBatchBytes/len(body)]
				if body, err = json.Marshal(req); err != nil {
					panic(err)
				}
			}
			out = append(out, batchRequest{req: req, body: body})
		}
	}
	return out
}

// Measurement streams: a drifting cell receives batchesPerTrip
// batches of ingestRuns runs whose durations are scaled by
// driftFactor, enough for the server's default detector (window
// minimum 32, three consecutive breaches) to trip on the last one.
// After each drifting batch, steady cells receive steadyPerDrift
// in-distribution batches, which fill windows and are evaluated but
// never trip: most measurements a service ingests show no drift. One run
// per batch is truncated and must be quarantined.
const (
	ingestRuns     = 17
	batchesPerTrip = 4
	driftFactor    = 1.6
	steadyPerDrift = 3  // steady batches sent after each drifting one
	steadyCells    = 10 // benchmarks per system that only get steady batches
)

// ingestBatch is one POST /v1/measurements body.
type ingestBatch struct {
	req  serve.MeasurementsRequest
	body []byte
	// last marks the batch that should trip its cell.
	last bool
}

// makeIngest builds two streams over one split of the benchmarks into
// drifting and steady cells: drift, n batches that alternate drifting
// and steady batches, and steady, nSteady batches for steady cells
// only, which trip nothing. Drifting cells take turns, alternating
// systems and never revisiting a cell, so each cell trips at most once
// and its refit completion time in the drift snapshot belongs to that
// trip.
func makeIngest(rng *randx.RNG, n, nSteady int) (drift, steadyOnly []ingestBatch) {
	benches := perfsim.TableI()
	perm := rng.Perm(len(benches))
	drifting, steady := perm[:len(perm)-steadyCells], perm[len(perm)-steadyCells:]
	systems := campaignSystems()
	batch := func(sys *perfsim.System, w perfsim.Workload, factor float64, last bool) ingestBatch {
		runs := perfsim.NewMachine(sys).Bench(w).RunN(rng.Split(), ingestRuns)
		for i := range runs {
			runs[i].Seconds *= factor
		}
		bad := rng.IntN(len(runs))
		runs[bad].Metrics = runs[bad].Metrics[:len(runs[bad].Metrics)/2]
		req := serve.MeasurementsRequest{System: sys.Name, Benchmark: w.ID(), Runs: probeRuns(runs)}
		body, err := json.Marshal(req)
		if err != nil {
			panic(err)
		}
		return ingestBatch{req: req, body: body, last: last}
	}
	steadyBatch := func() ingestBatch {
		s := systems[rng.IntN(len(systems))]
		return batch(s, benches[steady[rng.IntN(len(steady))]], 1, false)
	}
	for c := 0; len(drift) < n; c++ {
		sys := systems[c%len(systems)]
		w := benches[drifting[(c/len(systems))%len(drifting)]]
		for b := 0; b < batchesPerTrip && len(drift) < n; b++ {
			drift = append(drift, batch(sys, w, driftFactor, b == batchesPerTrip-1))
			for j := 0; j < steadyPerDrift && len(drift) < n; j++ {
				drift = append(drift, steadyBatch())
			}
		}
	}
	for len(steadyOnly) < nSteady {
		steadyOnly = append(steadyOnly, steadyBatch())
	}
	return drift, steadyOnly
}

package main

import (
	"time"

	"repro/internal/randx"
)

// maxClients is the number of client connections the benchmark opens
// at once: one per core of the 2-core reference host.
const maxClients = 2

// steadyRate is the ingest phase's open-loop rate, batches per second
// in every workload: a steady batch costs about a millisecond, so at
// this rate the phase keeps the CPU a few percent busy and still times
// enough batches for a steady median.
const steadyRate = 40

// ingestTail is the ingest phase's tail percentile, in every workload:
// the phase times 100 to 150 batches a run.
const ingestTail float64 = 90

// spec describes one workload. Shares are of --seconds.
type spec struct {
	name string
	// routed puts two replicas behind a cluster router and frontend.
	routed bool
	// batch sends profile batches instead of single benchmark queries.
	batch bool
	// keys is the number of distinct benchmark queries; key i uses
	// models[i%len(models)] (batch workloads: one batch per system and
	// model).
	keys   int
	models []string
	// closedReaders is the number of closed-loop prediction clients and
	// readers the number of connections they and the paced phase share.
	// The benchmark runs on one CPU (pinOneCPU), where a second
	// closed-loop client would only take turns with the first.
	closedReaders, readers int
	// closedShare and pacedShare are the read phases and steadyShare
	// the ingest phase, whose steady batches trip nothing; reads are idle
	// during it. The drifting stream, whose batches trip refits, takes
	// the rest of the run after them, with reads idle, or with
	// ingestAlongside streams beside the closed-loop readers once
	// quietShare of the run has passed; the paced phase then follows
	// once its refits have finished.
	closedShare, pacedShare, steadyShare float64
	// quietShare is the first part of the closed phase, where the
	// closed-loop readers run with writes idle; predict_rps is measured
	// over it. Without a producer alongside it is the whole closed
	// phase.
	quietShare float64
	// pacedRate is the open-loop prediction rate, requests per second.
	pacedRate float64
	// ingestRate is the drifting stream's open-loop rate, batches per
	// second.
	ingestRate      float64
	ingestAlongside bool
	// Tail percentiles, fixed per workload so that runs of different
	// speed are judged at the same point (see README.md for how each
	// was chosen).
	predictTail, pacedTail float64
	// processes is how many fresh processes an untraced run spreads its
	// measured time over, one after another. Three pool whatever one
	// process settles into (heap layout, which replica owns which key);
	// profile-batch, whose requests take a fifth of a second, uses one
	// so that its phases stay long enough to hold a useful sample.
	processes int
}

var specs = []*spec{
	{
		name: "warm-uc", keys: 60, models: []string{"knn"}, closedReaders: 1, readers: 1,
		closedShare: 0.44, pacedShare: 0.28, steadyShare: 0.10, pacedRate: 16, ingestRate: 16,
		predictTail: 90, pacedTail: 90, processes: 3,
	},
	{
		name: "profile-batch", batch: true, models: []string{"knn", "rf", "xgboost"}, closedReaders: 1, readers: 1,
		closedShare: 0.44, pacedShare: 0.30, steadyShare: 0.10, pacedRate: 1.5, ingestRate: 8,
		predictTail: 80, pacedTail: 75, processes: 1,
	},
	{
		// Keys 0 and 2 are the use-case-1 queries on intel and amd: one
		// resident XGBoost model per system, so every refit fits one
		// ensemble as well as the kNN models and datasets.
		name: "routed-ingest", routed: true, keys: 16,
		models: []string{"xgboost", "knn", "xgboost", "knn", "knn", "knn", "knn", "knn",
			"knn", "knn", "knn", "knn", "knn", "knn", "knn", "knn"},
		closedReaders: 1, readers: 1, closedShare: 0.60, quietShare: 0.20, pacedShare: 0.25, steadyShare: 0.15, pacedRate: 12, ingestRate: 12, ingestAlongside: true,
		predictTail: 75, pacedTail: 75, processes: 3,
	},
}

func findSpec(name string) *spec {
	for _, sp := range specs {
		if sp.name == name {
			return sp
		}
	}
	return nil
}

// inputs are everything the benchmark sends, generated from the seed
// before any timing starts.
type inputs struct {
	keys    []predictKey
	batches []batchRequest
	// closed and paced index keys (or batches) in send order.
	closed, paced []int
	pacedDue      []time.Duration
	// steady is the ingest phase's stream and drift the drifting one.
	steady, drift       []ingestBatch
	steadyDue, driftDue []time.Duration
}

// phases returns the lengths of the closed, paced and ingest phases and
// of the drifting stream.
func (sp *spec) phases(total time.Duration) (closed, paced, steady, drift time.Duration) {
	closed = time.Duration(float64(total) * sp.closedShare)
	paced = time.Duration(float64(total) * sp.pacedShare)
	steady = time.Duration(float64(total) * sp.steadyShare)
	if sp.ingestAlongside {
		return closed, paced, steady, closed - sp.quiet(total)
	}
	return closed, paced, steady, total - closed - paced - steady
}

// quiet returns the length of the closed phase's writes-idle part.
func (sp *spec) quiet(total time.Duration) time.Duration {
	if sp.ingestAlongside {
		return time.Duration(float64(total) * sp.quietShare)
	}
	return time.Duration(float64(total) * sp.closedShare)
}

func makeInputs(sp *spec, seed uint64, total time.Duration) *inputs {
	rng := randx.New(seed)
	in := &inputs{}
	n := 0
	if sp.batch {
		in.batches = makeBatches(rng.Split(), sp.models)
		n = len(in.batches)
	} else {
		in.keys = pickPredictKeys(rng.Split(), sp.keys, sp.models)
		n = len(in.keys)
	}
	_, paced, steady, drift := sp.phases(total)
	in.closed = order(rng.Split(), n, 1<<16)
	in.pacedDue = arrivals(rng.Split(), sp.pacedRate, paced)
	in.paced = order(rng.Split(), n, len(in.pacedDue))
	in.steadyDue = arrivals(rng.Split(), steadyRate, steady)
	in.driftDue = arrivals(rng.Split(), sp.ingestRate, drift)
	in.drift, in.steady = makeIngest(rng.Split(), len(in.driftDue), len(in.steadyDue))
	return in
}

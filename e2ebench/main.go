// Command e2ebench is the repository's end-to-end serving benchmark.
// It collects the measurement campaign, starts real serve.Server
// replicas (and, in one workload, a cluster router and frontend) on
// loopback ports, drives them over HTTP with requests generated from
// --seed, checks every answer, and prints one JSON result line.
//
//	bash e2ebench/run.sh --workload warm-uc --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it
// replays each request through the layers' public functions under
// spans and prints the per-layer metrics. See e2ebench/README.md.
package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"time"
)

// metric is one named, measured value.
type metric struct {
	name  string
	value float64
	unit  string
}

// result is one run's outcome.
type result struct {
	correct           bool
	attempted, failed int
	metrics           []metric
}

func (r *result) MarshalJSON() ([]byte, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]value, len(r.metrics))
	for _, m := range r.metrics {
		ms[m.name] = value{m.value, m.unit}
	}
	return json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.correct, r.attempted, r.failed, ms})
}

// digests.json records, per workload and seed, the digest of the
// normalized reference answers at the commit that recorded them. A run
// whose digest differs is not correct: the program's answers changed.
//
//go:embed digests.json
var digestsJSON []byte

func recordedDigest(workload string, seed uint64) (string, bool) {
	var all map[string]map[string]string
	if err := json.Unmarshal(digestsJSON, &all); err != nil {
		return "", false
	}
	d, ok := all[workload][strconv.FormatUint(seed, 10)]
	return d, ok
}

func main() {
	workload := flag.String("workload", "", "workload: warm-uc | profile-batch | routed-ingest")
	seed := flag.Uint64("seed", 1, "seed for every generated input")
	seconds := flag.Float64("seconds", 20, "measured seconds")
	trace := flag.Int("trace", 0, "1 = traced run printing per-layer metrics")
	isPart := flag.Bool("part", false, "internal: measure one process of an untraced run and print it as JSON")
	isCalibrator := flag.Bool("calibrator", false, "internal: time the calibration workload on request")
	flag.Parse()
	if *isCalibrator {
		if err := serveCalibration(os.Stdin, os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "e2ebench: calibration: %v\n", err)
			os.Exit(1)
		}
		return
	}
	sp := findSpec(*workload)
	if sp == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "e2ebench: bad arguments (workload %q, seconds %v, trace %d)\n", *workload, *seconds, *trace)
		os.Exit(2)
	}
	if err := pinOneCPU(); err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %v\n", err)
		os.Exit(1)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	total := time.Duration(*seconds * float64(time.Second))
	var out any
	var err error
	switch {
	case *isPart:
		out, err = measurePart(ctx, sp, *seed, total)
	case *trace == 1:
		out, err = runTraced(ctx, sp, *seed, total)
	default:
		out, err = runParts(ctx, sp, *seed, total)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %v\n", err)
		os.Exit(1)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

package main

import (
	"bytes"
	"testing"
	"time"
)

// inputBytes concatenates every byte the benchmark would send for one
// workload and seed, schedules included.
func inputBytes(sp *spec, seed uint64) []byte {
	in := makeInputs(sp, seed, 5*time.Second)
	var b bytes.Buffer
	for _, k := range in.keys {
		b.Write(k.body)
	}
	for _, bt := range in.batches {
		b.Write(bt.body)
	}
	for _, ib := range append(in.drift, in.steady...) {
		b.Write(ib.body)
	}
	for _, seq := range [][]int{in.closed, in.paced} {
		for _, i := range seq {
			b.WriteByte(byte(i))
		}
	}
	for _, due := range [][]time.Duration{in.pacedDue, in.steadyDue, in.driftDue} {
		for _, d := range due {
			b.WriteString(d.String())
		}
	}
	return b.Bytes()
}

func TestInputsFollowSeed(t *testing.T) {
	for _, sp := range specs {
		a, again, other := inputBytes(sp, 1), inputBytes(sp, 1), inputBytes(sp, 2)
		if !bytes.Equal(a, again) {
			t.Errorf("%s: seed 1 gave different request bytes on a second draw", sp.name)
		}
		if bytes.Equal(a, other) {
			t.Errorf("%s: seeds 1 and 2 gave the same request bytes", sp.name)
		}
	}
}

func TestBatchesFitServerCaps(t *testing.T) {
	in := makeInputs(findSpec("profile-batch"), 3, time.Second)
	for _, bt := range in.batches {
		if len(bt.body) > maxBatchBytes || len(bt.req.Profiles) > maxBatchProfiles || len(bt.req.Profiles) == 0 {
			t.Errorf("batch of %d profiles, %d bytes, is outside the server's caps", len(bt.req.Profiles), len(bt.body))
		}
	}
}

func TestIngestTripsEachDriftingCellOnce(t *testing.T) {
	in := makeInputs(findSpec("warm-uc"), 4, 10*time.Second)
	lasts := map[string]int{}
	for _, ib := range in.drift {
		if ib.last {
			lasts[ib.req.System+"/"+ib.req.Benchmark]++
		}
	}
	if len(lasts) == 0 {
		t.Fatal("no drifting cell completes a trip")
	}
	for cell, n := range lasts {
		if n != 1 {
			t.Errorf("cell %s is driven to a trip %d times", cell, n)
		}
	}
}

func TestSteadyStreamTripsNothing(t *testing.T) {
	in := makeInputs(findSpec("routed-ingest"), 5, 10*time.Second)
	drifting := map[string]bool{}
	for _, ib := range in.drift {
		if ib.last {
			drifting[ib.req.System+"/"+ib.req.Benchmark] = true
		}
	}
	if len(in.steady) == 0 {
		t.Fatal("no steady batches")
	}
	for _, ib := range in.steady {
		if ib.last || drifting[ib.req.System+"/"+ib.req.Benchmark] {
			t.Errorf("steady batch for %s/%s reaches a drifting cell", ib.req.System, ib.req.Benchmark)
		}
	}
}

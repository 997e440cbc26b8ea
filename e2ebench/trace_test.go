package main

import (
	"testing"
	"time"
)

func TestSelfTimeOnHandBuiltTree(t *testing.T) {
	const ms = time.Millisecond
	spans := []Span{
		{Name: "root", Parent: -1, Start: 0, End: 100 * ms},
		{Name: "a", Parent: 0, Start: 10 * ms, End: 30 * ms},
		{Name: "b", Parent: 0, Start: 20 * ms, End: 50 * ms},  // overlaps a
		{Name: "c", Parent: 0, Start: 90 * ms, End: 120 * ms}, // runs past the root
		{Name: "a1", Parent: 1, Start: 15 * ms, End: 20 * ms},
		{Name: "other", Parent: -1, Start: 0, End: 7 * ms},
	}
	want := []time.Duration{
		50 * ms, // 100 minus the union [10,50] and [90,100]
		15 * ms, // 20 minus a1
		30 * ms,
		30 * ms,
		5 * ms,
		7 * ms,
	}
	for i, got := range selfTimes(spans) {
		if got != want[i] {
			t.Errorf("self time of %s = %v, want %v", spans[i].Name, got, want[i])
		}
	}
}

func TestRecorderNilIsInert(t *testing.T) {
	var r *Recorder
	r.Finish(r.Begin("x", 1, -1))
	if i := r.Add("x", 1, -1, time.Now(), time.Now()); i != -1 {
		t.Errorf("nil recorder returned span %d", i)
	}
}

package main

import (
	"math"
	"testing"
	"time"
)

func TestScaleOverUsesTheSlicesAroundTheSpan(t *testing.T) {
	t0 := time.Unix(1000, 0)
	h := &hostSpeed{}
	// Fast for the first second, twice as slow for the next.
	for i := 0; i < 200; i++ {
		cost := float64(refCalibNS)
		if i >= 100 {
			cost *= 2
		}
		h.points = append(h.points, speedPoint{at: t0.Add(time.Duration(i) * calibPeriod), cost: cost})
	}
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	for _, c := range []struct {
		from, to int
		want     float64
	}{
		{200, 230, 1},     // inside the fast state
		{1500, 1530, 0.5}, // inside the slow state
		{500, 1500, 0},    // across both: checked below
	} {
		got := h.scaleOver(at(c.from), at(c.to))
		if c.want == 0 {
			if got <= 0.5 || got >= 1 {
				t.Errorf("%d-%d ms: scale %v, want between the two states", c.from, c.to, got)
			}
			continue
		}
		if math.Abs(got-c.want) > 1e-9 {
			t.Errorf("%d-%d ms: scale %v, want %v", c.from, c.to, got, c.want)
		}
	}
	// Beyond the last slice, the nearest calibWindow slices decide.
	if got := h.scaleOver(at(5000), at(5010)); math.Abs(got-0.5) > 1e-9 {
		t.Errorf("after the last slice: scale %v, want 0.5", got)
	}
}

func TestCalibrationSliceIsTimed(t *testing.T) {
	c := newCalibration()
	if d := c.slice(); d <= 0 {
		t.Fatalf("slice took %v of thread CPU time", d)
	}
}

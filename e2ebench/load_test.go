package main

import (
	"sync"
	"testing"
	"time"
)

// fakeClock advances only when a sender sleeps or is served.
type fakeClock struct {
	mu sync.Mutex
	t  time.Duration
}

func (c *fakeClock) now() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) sleepUntil(t time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if t > c.t {
		c.t = t
	}
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t += d
}

func TestOpenLoopTimesFromDue(t *testing.T) {
	clk := &fakeClock{}
	const ms = time.Millisecond
	due := []time.Duration{0, 10 * ms, 20 * ms, 100 * ms}
	// Every request takes 25ms, so the second and third queue behind the
	// first; the fourth finds the sender idle.
	samples, lag := openLoop(clk, due, 1, func(_ int, answered func()) bool {
		clk.advance(25 * ms)
		answered()
		clk.advance(ms) // checking the answer is not part of its latency
		return true
	})
	want := []time.Duration{25 * ms, 41 * ms, 57 * ms, 25 * ms}
	for i, s := range samples {
		if s.latency() != want[i] {
			t.Errorf("request %d: latency %v, want %v (due %v, sent %v)", i, s.latency(), want[i], s.due, s.start)
		}
	}
	// The sender slept only before the fourth request, and woke on time.
	if len(lag) != 1 || lag[0] != 0 {
		t.Errorf("generator lag %v, want one on-time wake-up", lag)
	}
}

func TestClosedLoopWaitsForEachAnswer(t *testing.T) {
	clk := &fakeClock{}
	samples := closedLoop(clk, 100*time.Millisecond, 1, func(int, func()) bool {
		clk.advance(30 * time.Millisecond)
		return true
	})
	if len(samples) != 4 {
		t.Fatalf("%d requests in 100ms at 30ms each, want 4", len(samples))
	}
	for i, s := range samples {
		if s.start != time.Duration(i)*30*time.Millisecond || s.latency() != 30*time.Millisecond {
			t.Errorf("request %d: sent %v, latency %v", i, s.start, s.latency())
		}
	}
}

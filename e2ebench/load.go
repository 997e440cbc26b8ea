package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// phaseClock is the load generators' time source: offsets from the
// start of a phase, and a sleep to an offset. Tests substitute a fake.
type phaseClock interface {
	now() time.Duration
	sleepUntil(t time.Duration)
}

type wallClock struct{ start time.Time }

func newWallClock() wallClock { return wallClock{start: time.Now()} }

func (c wallClock) now() time.Duration { return time.Since(c.start) }

func (c wallClock) sleepUntil(t time.Duration) {
	if d := t - c.now(); d > 0 {
		time.Sleep(d)
	}
}

// sample is one request's timing within a phase. For a closed loop due
// equals start; for an open loop due is the scheduled send time.
type sample struct {
	due, start, end time.Duration
	ok              bool
}

// latency is the time the caller waited: from when the request was due,
// not from when a sender got round to it.
func (s sample) latency() time.Duration { return s.end - s.due }

// sendFunc sends request i and reports success. It calls answered as
// soon as the answer is in, so that checking the answer is not timed;
// if it never does, the request ends when sendFunc returns.
type sendFunc func(i int, answered func()) bool

// timedSend runs send and returns the request's end on clk.
func timedSend(clk phaseClock, send sendFunc, i int) (ok bool, end time.Duration) {
	end = -1
	ok = send(i, func() { end = clk.now() })
	if end < 0 {
		end = clk.now()
	}
	return ok, end
}

// closedLoop runs workers senders back to back until d has passed on
// clk; each sends its next request only after the previous one
// answered. send gets a global sequence number.
func closedLoop(clk phaseClock, d time.Duration, workers int, send sendFunc) []sample {
	var (
		next atomic.Int64
		mu   sync.Mutex
		out  []sample
		wg   sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mine []sample
			for clk.now() < d {
				seq := int(next.Add(1) - 1)
				start := clk.now()
				ok, end := timedSend(clk, send, seq)
				mine = append(mine, sample{due: start, start: start, end: end, ok: ok})
			}
			mu.Lock()
			out = append(out, mine...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	return out
}

// openLoop sends request i at due[i] (offsets on clk, ascending) from
// at most workers concurrent senders. A sender that is free before a
// request is due sleeps until then; one that frees up late sends at
// once, and the wait counts in the request's latency. lag holds, for
// every request a free sender slept for, how late the wake-up was:
// the generator's own lateness, which must stay small for the phase's
// latencies to mean what they say.
func openLoop(clk phaseClock, due []time.Duration, workers int, send sendFunc) (samples []sample, lag []time.Duration) {
	var (
		next atomic.Int64
		mu   sync.Mutex
		wg   sync.WaitGroup
	)
	samples = make([]sample, len(due))
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(due) {
					return
				}
				if clk.now() < due[i] {
					clk.sleepUntil(due[i])
					late := clk.now() - due[i]
					mu.Lock()
					lag = append(lag, late)
					mu.Unlock()
				}
				start := clk.now()
				ok, end := timedSend(clk, send, i)
				samples[i] = sample{due: due[i], start: start, end: end, ok: ok}
			}
		}()
	}
	wg.Wait()
	return samples, lag
}

// client sends loopback HTTP over at most maxConns connections per
// host.
type client struct{ hc *http.Client }

func newClient(maxConns int) *client {
	return &client{hc: &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     maxConns,
			MaxIdleConnsPerHost: maxConns,
			DisableCompression:  true,
		},
	}}
}

// post sends body to url and returns the status and full answer.
func (c *client) post(url string, body []byte, reqID int64) (int, []byte, error) {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, fmt.Errorf("build request: %w", err)
	}
	req.Header.Set("Content-Type", "application/json")
	if reqID >= 0 {
		req.Header.Set(reqIDHeader, fmt.Sprint(reqID))
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, nil, fmt.Errorf("read answer: %w", err)
	}
	return resp.StatusCode, out, nil
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// reqIDHeader carries the benchmark's request number in traced runs so
// the handler span and the composed spans of one request share an ID.
// The server ignores it.
const reqIDHeader = "X-Bench-Request"

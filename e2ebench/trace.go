package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// Span is one timed call into a layer, recorded by the benchmark's own
// code around the public function it calls. Start and End are offsets
// from the recorder's epoch; Parent is the index of the enclosing span
// in the recorder, -1 for a root. Spans of one request share ReqID.
type Span struct {
	Name   string        `json:"name"`
	ReqID  int64         `json:"req"`
	Parent int           `json:"parent"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// Dur is the span's wall duration.
func (s Span) Dur() time.Duration { return s.End - s.Start }

// Recorder keeps spans in memory for the whole run; they are written
// out once, at the end, so that recording costs an append under a lock
// and no I/O.
type Recorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []Span
}

func newRecorder() *Recorder { return &Recorder{epoch: time.Now()} }

// Begin opens a span and returns its index; close it with Finish. A nil
// recorder records nothing, so untraced runs pass nil and pay one
// branch per call site.
func (r *Recorder) Begin(name string, req int64, parent int) int {
	if r == nil {
		return -1
	}
	now := time.Since(r.epoch)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, Span{Name: name, ReqID: req, Parent: parent, Start: now, End: -1})
	return len(r.spans) - 1
}

// Finish closes the span Begin returned.
func (r *Recorder) Finish(i int) {
	if r == nil || i < 0 {
		return
	}
	now := time.Since(r.epoch)
	r.mu.Lock()
	r.spans[i].End = now
	r.mu.Unlock()
}

// Add records an already-timed span (used where the two ends are taken
// on different goroutines or around a locked thread).
func (r *Recorder) Add(name string, req int64, parent int, start, end time.Time) int {
	if r == nil {
		return -1
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, Span{Name: name, ReqID: req, Parent: parent,
		Start: start.Sub(r.epoch), End: end.Sub(r.epoch)})
	return len(r.spans) - 1
}

// Spans returns a copy of every recorded span.
func (r *Recorder) Spans() []Span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Span(nil), r.spans...)
}

// WriteJSONL writes one span per line to path, creating its directory.
func (r *Recorder) WriteJSONL(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.Spans() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("trace: encode span: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("trace: %w", err)
	}
	return f.Close()
}

// selfTimes returns, for every span, its duration minus the part of
// its interval that its direct children cover. Children may overlap
// each other (parallel work); the covered part counts once. A child
// reaching outside its parent is clipped to the parent.
func selfTimes(spans []Span) []time.Duration {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 && s.Parent < len(spans) {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		type iv struct{ a, b time.Duration }
		var ivs []iv
		for _, c := range children[i] {
			a, b := spans[c].Start, spans[c].End
			if a < s.Start {
				a = s.Start
			}
			if b > s.End {
				b = s.End
			}
			if b > a {
				ivs = append(ivs, iv{a, b})
			}
		}
		sort.Slice(ivs, func(x, y int) bool { return ivs[x].a < ivs[y].a })
		var covered time.Duration
		var curA, curB time.Duration
		open := false
		for _, v := range ivs {
			if open && v.a <= curB {
				if v.b > curB {
					curB = v.b
				}
				continue
			}
			if open {
				covered += curB - curA
			}
			curA, curB, open = v.a, v.b, true
		}
		if open {
			covered += curB - curA
		}
		out[i] = s.Dur() - covered
	}
	return out
}

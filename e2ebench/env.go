package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/distrep"
	"repro/internal/drift"
	"repro/internal/measure"
	"repro/internal/obs"
	"repro/internal/perfsim"
	"repro/internal/serve"
)

// httpServer is one loopback listener and the goroutine serving it.
type httpServer struct {
	url  string
	hs   *http.Server
	done chan error
}

func startHTTP(h http.Handler) (*httpServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	s := &httpServer{url: "http://" + ln.Addr().String(), hs: &http.Server{Handler: h}, done: make(chan error, 1)}
	go func() { s.done <- s.hs.Serve(ln) }()
	return s, nil
}

func (s *httpServer) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.hs.Shutdown(ctx); err != nil {
		return fmt.Errorf("shutdown %s: %w", s.url, err)
	}
	if err := <-s.done; !errors.Is(err, http.ErrServerClosed) {
		return fmt.Errorf("serve %s: %w", s.url, err)
	}
	return nil
}

// replica is one serve.Server behind its own listener.
type replica struct {
	id      string
	srv     *serve.Server
	http    *httpServer
	backend *cluster.HTTPBackend
}

// env is one set-up instance of a workload's serving topology: one
// replica, or two replicas behind a cluster router and its frontend.
type env struct {
	db      *measure.Database
	reps    []*replica
	entry   string // where clients send requests
	router  *cluster.Router
	metrics *obs.Registry
	front   *httpServer

	stopProbes context.CancelFunc
	probes     sync.WaitGroup
}

// handlerSpans records a "serve.handler" span around the server's
// handler for every prediction while tracing is on, under the
// benchmark's request number when the request carries it (through the
// router it does not, and the span carries -1).
type handlerSpans struct {
	rec    *Recorder
	active *atomic.Bool
	next   http.Handler
}

func (h *handlerSpans) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !h.active.Load() || !strings.HasPrefix(r.URL.Path, "/v1/predict/") {
		h.next.ServeHTTP(w, r)
		return
	}
	id, err := strconv.ParseInt(r.Header.Get(reqIDHeader), 10, 64)
	if err != nil {
		id = -1
	}
	start := time.Now()
	h.next.ServeHTTP(w, r)
	h.rec.Add("serve.handler", id, -1, start, time.Now())
}

// setUp collects the campaign, builds the topology and warms every
// model the workload will ask for. Everything it does counts as
// set-up time.
func setUp(ctx context.Context, sp *spec, in *inputs, wrap func(http.Handler) http.Handler) (_ *env, err error) {
	db, err := measure.Collect(campaignSystems(), perfsim.TableI(),
		measure.Config{Runs: campaignRuns, ProbeRuns: campaignProbeRuns, Seed: campaignSeed})
	if err != nil {
		return nil, fmt.Errorf("collect campaign: %w", err)
	}
	e := &env{db: db}
	defer func() {
		if err != nil {
			e.close()
		}
	}()
	replicas := 1
	if sp.routed {
		replicas = 2
	}
	for i := 0; i < replicas; i++ {
		r := &replica{id: fmt.Sprintf("replica-%d", i)}
		// The benchmark's processes run on one CPU (pinOneCPU), where
		// the server's default worker pool would be one slot; keep the
		// two it has on the two-core reference host.
		cfg := serve.Config{Workers: maxClients}
		if sp.routed {
			cfg.ReplicaID = r.id
		}
		r.srv = serve.New(db, cfg)
		if r.http, err = startHTTP(wrap(r.srv.Handler())); err != nil {
			return nil, err
		}
		e.reps = append(e.reps, r)
	}
	e.entry = e.reps[0].http.url
	if sp.routed {
		e.metrics = obs.NewRegistry()
		cfg := cluster.Config{Policy: cluster.CacheAffinity{}, Metrics: e.metrics}
		for _, r := range e.reps {
			r.backend = cluster.NewHTTPBackend(r.id, r.http.url, nil, 30*time.Second)
			cfg.Backends = append(cfg.Backends, r.backend)
		}
		if e.router, err = cluster.New(cfg); err != nil {
			return nil, fmt.Errorf("router: %w", err)
		}
		e.router.ProbeAll(ctx)
		pctx, cancel := context.WithCancel(ctx)
		e.stopProbes = cancel
		e.probes.Add(1)
		go func() {
			defer e.probes.Done()
			e.router.Run(pctx)
		}()
		if e.front, err = startHTTP(cluster.NewFrontend(e.router, e.metrics)); err != nil {
			return nil, err
		}
		e.entry = e.front.url
	}

	if sp.batch {
		var cfgs []core.UC1Config
		for _, m := range sp.models {
			cfgs = append(cfgs, core.UC1Config{Model: parseModel(m), Rep: distrep.PearsonRnd, NumSamples: 10, Seed: 1})
		}
		if err := e.reps[0].srv.Predictor().Warm(ctx, cfgs, nil); err != nil {
			return nil, fmt.Errorf("warm: %w", err)
		}
		return e, nil
	}
	// Held-out models have no warm-up entry point: the first request for
	// a key fits its model, so set-up sends each key once.
	c := newClient(maxClients)
	defer c.close()
	var next atomic.Int64
	var wg sync.WaitGroup
	errs := make(chan error, maxClients)
	for w := 0; w < maxClients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < len(in.keys); i = int(next.Add(1) - 1) {
				k := &in.keys[i]
				status, body, err := c.post(e.entry+k.path, k.body, -1)
				if err == nil && status != http.StatusOK {
					err = fmt.Errorf("status %d: %s", status, body)
				}
				if err != nil {
					errs <- fmt.Errorf("warm %s: %w", k.body, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		return nil, err
	}
	return e, nil
}

// owner returns the replica that serves key: the router's owner, or
// the only replica.
func (e *env) owner(route string) *replica {
	if e.router == nil {
		return e.reps[0]
	}
	id := e.router.Owners()[route]
	for _, r := range e.reps {
		if r.id == id {
			return r
		}
	}
	return nil
}

// waitRefits blocks until every background refit queued so far has
// finished on every replica.
func (e *env) waitRefits() {
	for _, r := range e.reps {
		r.srv.Drift().Wait()
	}
}

// cells returns every replica's drift cells.
func (e *env) cells() []drift.CellStatus {
	var out []drift.CellStatus
	for _, r := range e.reps {
		out = append(out, r.srv.Drift().Snapshot()...)
	}
	return out
}

// fitsAndDegraded sums, over the replicas, the predictions that had to
// fit a model and those a fallback answered.
func (e *env) fitsAndDegraded() (fits, degraded uint64) {
	for _, r := range e.reps {
		fits += r.srv.Predictor().CacheStats().Misses
		d := r.srv.Predictor().Degraded()
		degraded += d.StaleServed + d.KNNServed
	}
	return fits, degraded
}

// close stops the frontend, the probe loop and the replicas, after
// letting queued refits finish so no goroutine outlives the run.
func (e *env) close() error {
	var errs []error
	if e.front != nil {
		errs = append(errs, e.front.stop())
	}
	if e.stopProbes != nil {
		e.stopProbes()
		e.probes.Wait()
	}
	e.waitRefits()
	for _, r := range e.reps {
		if r.http != nil {
			errs = append(errs, r.http.stop())
		}
	}
	http.DefaultTransport.(*http.Transport).CloseIdleConnections()
	return errors.Join(errs...)
}

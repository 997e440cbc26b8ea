package modelstore

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/ml"
	"repro/internal/ml/knn"
)

// fitCounter returns a fit func that trains a kNN model and counts
// invocations.
func fitCounter(t *testing.T, d *ml.Dataset, calls *atomic.Int64) func() (ml.Regressor, error) {
	t.Helper()
	return func() (ml.Regressor, error) {
		calls.Add(1)
		reg := knn.New(5)
		if err := reg.Fit(d); err != nil {
			return nil, err
		}
		return reg, nil
	}
}

func newTestRegistry(t *testing.T, max int) *Registry {
	t.Helper()
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return NewRegistry(st, max)
}

func TestRegistryTiers(t *testing.T) {
	r := newTestRegistry(t, 4)
	d := testDataset(1)
	fp := FingerprintDataset(d)
	key := KeySpec{UseCase: 1, System: "intel", Model: "knn", DatasetFP: fp}.Key()
	var calls atomic.Int64
	fit := fitCounter(t, d, &calls)

	_, src, err := r.GetOrFit(key, fp, fit)
	if err != nil || src != SourceFit {
		t.Fatalf("first resolve: src=%v err=%v", src, err)
	}
	_, src, err = r.GetOrFit(key, fp, fit)
	if err != nil || src != SourceMemory {
		t.Fatalf("second resolve: src=%v err=%v", src, err)
	}
	r.Invalidate(key)
	_, src, err = r.GetOrFit(key, fp, fit)
	if err != nil || src != SourceDisk {
		t.Fatalf("post-invalidate resolve: src=%v err=%v", src, err)
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("fit ran %d times, want 1", got)
	}
	s := r.Stats()
	if s.Hits != 1 || s.DiskHits != 1 || s.Misses != 1 || s.Resident != 1 {
		t.Fatalf("stats %+v", s)
	}
}

// TestRegistrySingleflight launches many concurrent requests for one
// key and requires exactly one fit, with every caller getting the same
// model object.
func TestRegistrySingleflight(t *testing.T) {
	r := newTestRegistry(t, 4)
	d := testDataset(2)
	fp := FingerprintDataset(d)
	key := KeySpec{UseCase: 1, System: "intel", Model: "knn-sf", DatasetFP: fp}.Key()

	var calls atomic.Int64
	gate := make(chan struct{})
	fit := func() (ml.Regressor, error) {
		calls.Add(1)
		<-gate // hold the flight open until every waiter has queued
		reg := knn.New(5)
		if err := reg.Fit(d); err != nil {
			return nil, err
		}
		return reg, nil
	}

	const waiters = 16
	regs := make([]ml.Regressor, waiters)
	var wg sync.WaitGroup
	var started sync.WaitGroup
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		started.Add(1)
		go func(i int) {
			defer wg.Done()
			started.Done()
			reg, _, err := r.GetOrFit(key, fp, fit)
			if err != nil {
				t.Errorf("waiter %d: %v", i, err)
				return
			}
			regs[i] = reg
		}(i)
	}
	started.Wait()
	close(gate)
	wg.Wait()
	if got := calls.Load(); got != 1 {
		t.Fatalf("fit ran %d times under concurrency, want 1", got)
	}
	for i := 1; i < waiters; i++ {
		if regs[i] != regs[0] {
			t.Fatalf("waiter %d got a different model object", i)
		}
	}
}

func TestRegistryFitErrorRetries(t *testing.T) {
	r := newTestRegistry(t, 4)
	d := testDataset(3)
	fp := FingerprintDataset(d)
	key := KeySpec{UseCase: 1, System: "intel", Model: "knn-err", DatasetFP: fp}.Key()
	boom := errors.New("boom")
	if _, _, err := r.GetOrFit(key, fp, func() (ml.Regressor, error) { return nil, boom }); !errors.Is(err, boom) {
		t.Fatalf("failed fit: %v", err)
	}
	if s := r.Stats(); s.FitErrors != 1 || s.Resident != 0 {
		t.Fatalf("stats after failure %+v", s)
	}
	var calls atomic.Int64
	if _, src, err := r.GetOrFit(key, fp, fitCounter(t, d, &calls)); err != nil || src != SourceFit {
		t.Fatalf("retry: src=%v err=%v", src, err)
	}
}

// TestRegistryLRUDeterministic replays a fixed access pattern and
// checks the exact residency order and eviction count.
func TestRegistryLRUDeterministic(t *testing.T) {
	r := newTestRegistry(t, 3)
	d := testDataset(4)
	fp := FingerprintDataset(d)
	var calls atomic.Int64
	fit := fitCounter(t, d, &calls)

	key := func(i int) string {
		return KeySpec{UseCase: 1, System: fmt.Sprintf("sys%d", i), Model: "knn", DatasetFP: fp}.Key()
	}
	mustGet := func(i int, want Source) {
		t.Helper()
		_, src, err := r.GetOrFit(key(i), fp, fit)
		if err != nil || src != want {
			t.Fatalf("get %d: src=%v err=%v (want %v)", i, src, err, want)
		}
	}

	mustGet(0, SourceFit)
	mustGet(1, SourceFit)
	mustGet(2, SourceFit) // residency (MRU first): 2 1 0
	mustGet(0, SourceMemory)
	// Key 3 must evict key 1, the least recently used.
	mustGet(3, SourceFit)
	want := []string{key(3), key(0), key(2)}
	if got := r.ResidentKeys(); !reflect.DeepEqual(got, want) {
		t.Fatalf("resident order\n got %v\nwant %v", got, want)
	}
	// Key 1 was evicted but persisted: it comes back from disk and
	// evicts key 2.
	mustGet(1, SourceDisk)
	want = []string{key(1), key(3), key(0)}
	if got := r.ResidentKeys(); !reflect.DeepEqual(got, want) {
		t.Fatalf("resident order after reload\n got %v\nwant %v", got, want)
	}
	if s := r.Stats(); s.Evictions != 2 || s.Resident != 3 || s.MaxResident != 3 {
		t.Fatalf("stats %+v", s)
	}
}

func TestRegistryCorruptFileFallsThroughToFit(t *testing.T) {
	d := testDataset(5)
	fp := FingerprintDataset(d)
	fitted, err := fitCounter(t, d, new(atomic.Int64))()
	if err != nil {
		t.Fatal(err)
	}
	current, err := Encode(fitted, fp)
	if err != nil {
		t.Fatal(err)
	}
	planted := []struct {
		name string
		data []byte
	}{
		{"garbage", []byte("PVMSgarbage-that-is-long-enough-to-parse")},
		// A sound file of the previous format revision: rejected as
		// version skew, refitted and overwritten like any damage.
		{"v1 file", withVersion(current, FormatVersion-1)},
	}
	for _, p := range planted {
		t.Run(p.name, func(t *testing.T) {
			r := newTestRegistry(t, 4)
			key := KeySpec{UseCase: 1, System: "intel", Model: "knn-corrupt", DatasetFP: fp}.Key()
			// Plant the damaged file under the key.
			path := filepath.Join(r.Store().Dir(), key+fileExt)
			if err := os.WriteFile(path, p.data, 0o644); err != nil {
				t.Fatal(err)
			}
			var calls atomic.Int64
			_, src, err := r.GetOrFit(key, fp, fitCounter(t, d, &calls))
			if err != nil || src != SourceFit {
				t.Fatalf("corrupt file resolve: src=%v err=%v", src, err)
			}
			if s := r.Stats(); s.LoadErrors != 1 {
				t.Fatalf("stats %+v", s)
			}
			// The refit overwrote the damage: a cold registry now disk-hits.
			r2 := NewRegistry(r.Store(), 4)
			if _, src, err := r2.GetOrFit(key, fp, fitCounter(t, d, &calls)); err != nil || src != SourceDisk {
				t.Fatalf("reload after overwrite: src=%v err=%v", src, err)
			}
			if got := calls.Load(); got != 1 {
				t.Fatalf("fit ran %d times, want 1", got)
			}
		})
	}
}

func TestRegistryRefreshSwapsAtomically(t *testing.T) {
	r := newTestRegistry(t, 4)
	d := testDataset(6)
	fp := FingerprintDataset(d)
	key := KeySpec{UseCase: 1, System: "intel", Model: "knn-refresh", DatasetFP: fp}.Key()
	var calls atomic.Int64
	fit := fitCounter(t, d, &calls)
	first, _, err := r.GetOrFit(key, fp, fit)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Refresh(key, fp, fit); err != nil {
		t.Fatal(err)
	}
	second, src, err := r.GetOrFit(key, fp, fit)
	if err != nil || src != SourceMemory {
		t.Fatalf("post-refresh: src=%v err=%v", src, err)
	}
	if second == first {
		t.Fatal("refresh must swap in the refit model")
	}
	// Same data, same hyperparameters: the swap is invisible in the
	// predictions.
	x := d.X[0]
	if got, want := second.Predict(x), first.Predict(x); math.Float64bits(got[0]) != math.Float64bits(want[0]) {
		t.Fatalf("refresh changed predictions: %v vs %v", got, want)
	}
	if s := r.Stats(); s.Refreshes != 1 || s.Resident != 1 {
		t.Fatalf("stats %+v", s)
	}
	boom := errors.New("boom")
	if err := r.Refresh(key, fp, func() (ml.Regressor, error) { return nil, boom }); !errors.Is(err, boom) {
		t.Fatalf("failed refresh: %v", err)
	}
	// A failed refresh leaves the old model serving.
	if reg, src, err := r.GetOrFit(key, fp, fit); err != nil || src != SourceMemory || reg != second {
		t.Fatalf("after failed refresh: src=%v err=%v same=%v", src, err, reg == second)
	}
}

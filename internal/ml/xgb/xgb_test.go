package xgb

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"repro/internal/ml"
	"repro/internal/ml/tree"
	"repro/internal/randx"
)

func synth(seed uint64, n int) *ml.Dataset {
	rng := randx.New(seed)
	X := make([][]float64, n)
	Y := make([][]float64, n)
	for i := range X {
		a := rng.Uniform(-2, 2)
		b := rng.Uniform(-2, 2)
		X[i] = []float64{a, b}
		Y[i] = []float64{a*a - b + 0.05*rng.StdNormal(), math.Cos(a) + 0.05*rng.StdNormal()}
	}
	return &ml.Dataset{X: X, Y: Y}
}

func TestXGBLearnsNonlinear(t *testing.T) {
	train := synth(1, 1500)
	test := synth(2, 300)
	m := New(Config{NumRounds: 150, MaxDepth: 4, LearningRate: 0.15, Seed: 5})
	if err := m.Fit(train); err != nil {
		t.Fatal(err)
	}
	pred := make([][]float64, len(test.X))
	for i, x := range test.X {
		pred[i] = m.Predict(x)
	}
	if mse := ml.MSE(pred, test.Y); mse > 0.1 {
		t.Errorf("xgb test MSE = %v, want < 0.1", mse)
	}
}

func TestXGBBoostingReducesTrainError(t *testing.T) {
	train := synth(3, 400)
	few := New(Config{NumRounds: 3, Seed: 1})
	many := New(Config{NumRounds: 100, Seed: 1})
	if err := few.Fit(train); err != nil {
		t.Fatal(err)
	}
	if err := many.Fit(train); err != nil {
		t.Fatal(err)
	}
	pf := make([][]float64, len(train.X))
	pm := make([][]float64, len(train.X))
	for i, x := range train.X {
		pf[i] = few.Predict(x)
		pm[i] = many.Predict(x)
	}
	if ml.MSE(pm, train.Y) >= ml.MSE(pf, train.Y) {
		t.Errorf("more rounds did not reduce training error: %v vs %v",
			ml.MSE(pm, train.Y), ml.MSE(pf, train.Y))
	}
}

func TestXGBConstantTarget(t *testing.T) {
	d := &ml.Dataset{
		X: [][]float64{{1}, {2}, {3}},
		Y: [][]float64{{5}, {5}, {5}},
	}
	m := New(Config{NumRounds: 10})
	if err := m.Fit(d); err != nil {
		t.Fatal(err)
	}
	if got := m.Predict([]float64{2}); math.Abs(got[0]-5) > 1e-9 {
		t.Errorf("constant-target prediction = %v, want 5", got[0])
	}
}

func TestXGBDeterministicWithSeed(t *testing.T) {
	train := synth(6, 300)
	m1 := New(Config{NumRounds: 30, Subsample: 0.8, ColSample: 0.5, Seed: 9})
	m2 := New(Config{NumRounds: 30, Subsample: 0.8, ColSample: 0.5, Seed: 9})
	if err := m1.Fit(train); err != nil {
		t.Fatal(err)
	}
	if err := m2.Fit(train); err != nil {
		t.Fatal(err)
	}
	for _, x := range train.X[:20] {
		a, b := m1.Predict(x), m2.Predict(x)
		for j := range a {
			if a[j] != b[j] {
				t.Fatal("same seed gave different boosters")
			}
		}
	}
}

func TestXGBSubsamplingStillLearns(t *testing.T) {
	train := synth(7, 1000)
	test := synth(8, 200)
	m := New(Config{NumRounds: 120, MaxDepth: 4, Subsample: 0.7, ColSample: 0.8, Seed: 11})
	if err := m.Fit(train); err != nil {
		t.Fatal(err)
	}
	pred := make([][]float64, len(test.X))
	for i, x := range test.X {
		pred[i] = m.Predict(x)
	}
	if mse := ml.MSE(pred, test.Y); mse > 0.15 {
		t.Errorf("subsampled xgb test MSE = %v, want < 0.15", mse)
	}
}

func TestXGBGammaPrunes(t *testing.T) {
	// Huge gamma forbids all splits: every tree is a single leaf, and
	// with squared loss + lambda the prediction stays near the base.
	train := synth(9, 200)
	m := New(Config{NumRounds: 20, Gamma: 1e12, Seed: 2})
	if err := m.Fit(train); err != nil {
		t.Fatal(err)
	}
	var base float64
	for _, y := range train.Y {
		base += y[0]
	}
	base /= float64(len(train.Y))
	got := m.Predict(train.X[0])
	if math.Abs(got[0]-base) > 0.2*math.Abs(base)+0.2 {
		t.Errorf("gamma-pruned prediction = %v, want ~base %v", got[0], base)
	}
}

func TestXGBDefaults(t *testing.T) {
	m := New(Config{})
	c := m.cfg
	if c.NumRounds != 100 || c.LearningRate != 0.1 || c.MaxDepth != 3 ||
		c.Lambda != 1 || c.MinChildWeight != 1 || c.Subsample != 1 || c.ColSample != 1 {
		t.Errorf("defaults = %+v", c)
	}
	if m.Name() == "" {
		t.Error("Name should render")
	}
}

func TestXGBValidation(t *testing.T) {
	if err := New(Config{}).Fit(&ml.Dataset{}); err == nil {
		t.Error("empty dataset should fail")
	}
}

func TestXGBPredictBeforeFitPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(Config{}).Predict([]float64{1})
}

func TestXGBMultiOutputIndependence(t *testing.T) {
	// Output 1 is pure noise w.r.t. features; output 0 is learnable.
	// Learning output 0 must not be degraded by output 1's presence.
	rng := randx.New(13)
	n := 600
	X := make([][]float64, n)
	Y := make([][]float64, n)
	for i := range X {
		a := rng.Uniform(-1, 1)
		X[i] = []float64{a}
		Y[i] = []float64{3 * a, rng.StdNormal()}
	}
	m := New(Config{NumRounds: 80, Seed: 3})
	if err := m.Fit(&ml.Dataset{X: X, Y: Y}); err != nil {
		t.Fatal(err)
	}
	if got := m.Predict([]float64{0.5}); math.Abs(got[0]-1.5) > 0.2 {
		t.Errorf("output 0 prediction = %v, want ~1.5", got[0])
	}
}

// TestXGBParallelFitBitIdentical is the tentpole determinism guarantee
// for boosting: per-output ensembles fitted concurrently must match a
// single-worker fit to the last bit, across seeds and worker counts.
func TestXGBParallelFitBitIdentical(t *testing.T) {
	train := synth(10, 350)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, seed := range []uint64{1, 13, 777} {
		runtime.GOMAXPROCS(1)
		seq := New(Config{NumRounds: 25, Subsample: 0.8, ColSample: 0.5, Seed: seed})
		if err := seq.Fit(train); err != nil {
			t.Fatal(err)
		}
		want := make([][]float64, 30)
		for i, x := range train.X[:30] {
			want[i] = seq.Predict(x)
		}
		for _, procs := range []int{2, 4, 8} {
			runtime.GOMAXPROCS(procs)
			par := New(Config{NumRounds: 25, Subsample: 0.8, ColSample: 0.5, Seed: seed})
			if err := par.Fit(train); err != nil {
				t.Fatal(err)
			}
			for i, x := range train.X[:30] {
				got := par.Predict(x)
				for j := range got {
					if got[j] != want[i][j] {
						t.Fatalf("seed %d procs %d: prediction[%d][%d] = %v, sequential = %v",
							seed, procs, i, j, got[j], want[i][j])
					}
				}
			}
		}
	}
}

// TestXGBLambdaSentinel is the regression test for the withDefaults bug
// that made an unregularized booster impossible: 0 selects the default
// of 1, while a negative value explicitly disables regularization.
func TestXGBLambdaSentinel(t *testing.T) {
	if got := New(Config{}).cfg.Lambda; got != 1 {
		t.Errorf("Lambda default = %v, want 1", got)
	}
	if got := New(Config{Lambda: 2.5}).cfg.Lambda; got != 2.5 {
		t.Errorf("explicit Lambda = %v, want 2.5", got)
	}
	if got := New(Config{Lambda: -1}).cfg.Lambda; got != 0 {
		t.Errorf("negative Lambda sentinel = %v, want 0 (unregularized)", got)
	}

	// The unregularized booster must actually behave differently: with
	// λ = 0 a single-sample leaf fits its residual exactly, so one deep
	// tree at learning rate 1 drives the training error to ~0; λ = 1
	// shrinks every leaf and cannot.
	d := &ml.Dataset{
		X: [][]float64{{0}, {1}, {2}, {3}},
		Y: [][]float64{{0}, {10}, {-3}, {7}},
	}
	unreg := New(Config{NumRounds: 1, MaxDepth: 10, LearningRate: 1, Lambda: -1})
	reg := New(Config{NumRounds: 1, MaxDepth: 10, LearningRate: 1, Lambda: 1})
	if err := unreg.Fit(d); err != nil {
		t.Fatal(err)
	}
	if err := reg.Fit(d); err != nil {
		t.Fatal(err)
	}
	for i, x := range d.X {
		if got := unreg.Predict(x)[0]; math.Abs(got-d.Y[i][0]) > 1e-9 {
			t.Errorf("unregularized booster: Predict(%v) = %v, want exact %v", x, got, d.Y[i][0])
		}
		if got := reg.Predict(x)[0]; math.Abs(got-d.Y[i][0]) < 1e-9 && d.Y[i][0] != 0 {
			t.Errorf("regularized booster unexpectedly exact at %v", x)
		}
	}
}

// TestXGBFitErrorResets mirrors the forest regression: a failed re-fit
// must leave the regressor unfitted rather than serving the stale model.
func TestXGBFitErrorResets(t *testing.T) {
	good := synth(11, 100)
	m := New(Config{NumRounds: 5, Seed: 1})
	if err := m.Fit(good); err != nil {
		t.Fatal(err)
	}
	_ = m.Predict(good.X[0])
	bad := &ml.Dataset{X: [][]float64{{1}, {2}}, Y: [][]float64{{math.Inf(1)}, {0}}}
	if err := m.Fit(bad); err == nil {
		t.Fatal("Inf target should fail Fit")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Predict after a failed Fit should panic, not serve the stale model")
		}
	}()
	m.Predict(good.X[0])
}

// BenchmarkFit measures cold boosting at several worker counts (the
// parallel unit is one output ensemble, so multi-output datasets are
// required to see any gain); see EXPERIMENTS.md for recorded numbers.
func BenchmarkFit(b *testing.B) {
	ds := synth(1, 1500)
	for _, procs := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("procs=%d", procs), func(b *testing.B) {
			prev := runtime.GOMAXPROCS(procs)
			defer runtime.GOMAXPROCS(prev)
			for i := 0; i < b.N; i++ {
				m := New(Config{NumRounds: 40, MaxDepth: 4, Seed: 5})
				if err := m.Fit(ds); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// PredictReference accumulates every round's leaf weight walking the
// node tables with NaN routed right by an explicit math.IsNaN branch:
// the reference the NaN-contract test compares Predict against.
func (x *Regressor) PredictReference(in []float64) []float64 {
	if x.tables == nil {
		panic("xgb: Predict before Fit")
	}
	out := make([]float64, len(x.tables))
	for j, tab := range x.tables {
		p := x.baseScore[j]
		for _, i := range tab.Roots {
			for tab.Feature[i] != tree.Leaf {
				xv := in[tab.Feature[i]]
				switch {
				case math.IsNaN(xv):
					i = tab.Right[i]
				case xv <= tab.Threshold[i]:
					i = tab.Left[i]
				default:
					i = tab.Right[i]
				}
			}
			p += x.cfg.LearningRate * tab.Values[tab.Left[i]]
		}
		out[j] = p
	}
	return out
}

// TestXGBNaNMatchesReference pins the NaN routing contract: with NaN
// features sprinkled over the probes, Predict must agree bit for bit
// with the explicit-IsNaN reference walker.
func TestXGBNaNMatchesReference(t *testing.T) {
	m := New(Config{NumRounds: 40, MaxDepth: 4, Seed: 3})
	if err := m.Fit(synth(7, 300)); err != nil {
		t.Fatal(err)
	}
	rng := randx.New(8)
	for q := 0; q < 200; q++ {
		x := []float64{rng.Uniform(-2, 2), rng.Uniform(-2, 2)}
		if q%3 == 0 {
			x[q%2] = math.NaN()
		}
		got, want := m.Predict(x), m.PredictReference(x)
		for j := range want {
			if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
				t.Fatalf("probe %d out %d: Predict %v != reference %v", q, j, got[j], want[j])
			}
		}
	}
}

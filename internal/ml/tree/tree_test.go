package tree

import (
	"errors"
	"math"
	"testing"

	"repro/internal/ml"
	"repro/internal/randx"
)

// PredictReference walks the tree's node table with the NaN routing
// contract spelled out: a NaN feature value always follows the right
// (greater-than) branch. Table.Leaf realizes the same contract through
// IEEE comparison semantics (`NaN <= t` is false); here it is explicit
// with math.IsNaN, so the equivalence tests below pin the behavior
// rather than an artifact of comparison order.
func (t *Tree) PredictReference(x []float64) []float64 {
	if t.table == nil {
		panic("tree: Predict before Fit")
	}
	tb := t.table
	i := tb.Roots[0]
	for tb.Feature[i] != Leaf {
		xv := x[tb.Feature[i]]
		switch {
		case math.IsNaN(xv):
			i = tb.Right[i]
		case xv <= tb.Threshold[i]:
			i = tb.Left[i]
		default:
			i = tb.Right[i]
		}
	}
	off := tb.Left[i]
	return append([]float64(nil), tb.Values[off:off+int32(tb.NOut)]...)
}

func TestTreePerfectSplit(t *testing.T) {
	d := &ml.Dataset{
		X: [][]float64{{0}, {1}, {10}, {11}},
		Y: [][]float64{{1}, {1}, {5}, {5}},
	}
	tr := New(Config{})
	if err := tr.Fit(d); err != nil {
		t.Fatal(err)
	}
	if got := tr.Predict([]float64{0.5}); got[0] != 1 {
		t.Errorf("Predict(0.5) = %v, want 1", got[0])
	}
	if got := tr.Predict([]float64{10.5}); got[0] != 5 {
		t.Errorf("Predict(10.5) = %v, want 5", got[0])
	}
}

func TestTreeConstantTargetIsLeaf(t *testing.T) {
	d := &ml.Dataset{
		X: [][]float64{{1}, {2}, {3}},
		Y: [][]float64{{7}, {7}, {7}},
	}
	tr := New(Config{})
	if err := tr.Fit(d); err != nil {
		t.Fatal(err)
	}
	if tr.Leaves() != 1 {
		t.Errorf("constant target grew %d leaves, want 1 (no positive gain)", tr.Leaves())
	}
	if got := tr.Predict([]float64{99}); got[0] != 7 {
		t.Errorf("Predict = %v, want 7", got[0])
	}
}

func TestTreeMaxDepth(t *testing.T) {
	rng := randx.New(3)
	n := 200
	X := make([][]float64, n)
	Y := make([][]float64, n)
	for i := range X {
		x := rng.Uniform(0, 1)
		X[i] = []float64{x}
		Y[i] = []float64{math.Sin(10 * x)}
	}
	tr := New(Config{MaxDepth: 2})
	if err := tr.Fit(&ml.Dataset{X: X, Y: Y}); err != nil {
		t.Fatal(err)
	}
	if tr.Depth() > 2 {
		t.Errorf("Depth = %d, want <= 2", tr.Depth())
	}
	if tr.Leaves() > 4 {
		t.Errorf("Leaves = %d, want <= 4", tr.Leaves())
	}
}

func TestTreeMinSamplesLeaf(t *testing.T) {
	d := &ml.Dataset{
		X: [][]float64{{1}, {2}, {3}, {4}},
		Y: [][]float64{{1}, {2}, {3}, {4}},
	}
	tr := New(Config{MinSamplesLeaf: 2})
	if err := tr.Fit(d); err != nil {
		t.Fatal(err)
	}
	// With min leaf 2, at most 2 leaves of 2 samples each.
	if tr.Leaves() > 2 {
		t.Errorf("Leaves = %d, want <= 2", tr.Leaves())
	}
}

func TestTreeMultiOutputSplitsOnJointVariance(t *testing.T) {
	// Output 0 is constant; output 1 depends on the feature. The tree
	// must still split (joint criterion) and predict both outputs.
	d := &ml.Dataset{
		X: [][]float64{{0}, {1}, {2}, {3}},
		Y: [][]float64{{5, 0}, {5, 0}, {5, 10}, {5, 10}},
	}
	tr := New(Config{})
	if err := tr.Fit(d); err != nil {
		t.Fatal(err)
	}
	got := tr.Predict([]float64{3})
	if got[0] != 5 || got[1] != 10 {
		t.Errorf("Predict = %v, want [5 10]", got)
	}
}

func TestTreeInterpolatesStep(t *testing.T) {
	rng := randx.New(9)
	n := 500
	X := make([][]float64, n)
	Y := make([][]float64, n)
	for i := range X {
		x := rng.Uniform(0, 1)
		X[i] = []float64{x, rng.Uniform(0, 1)} // second feature is noise
		y := 0.0
		if x > 0.5 {
			y = 1
		}
		Y[i] = []float64{y}
	}
	tr := New(Config{MaxDepth: 4})
	if err := tr.Fit(&ml.Dataset{X: X, Y: Y}); err != nil {
		t.Fatal(err)
	}
	if got := tr.Predict([]float64{0.25, 0.5}); math.Abs(got[0]) > 0.05 {
		t.Errorf("Predict left = %v, want ~0", got[0])
	}
	if got := tr.Predict([]float64{0.75, 0.5}); math.Abs(got[0]-1) > 0.05 {
		t.Errorf("Predict right = %v, want ~1", got[0])
	}
}

func TestTreeFitIndices(t *testing.T) {
	d := &ml.Dataset{
		X: [][]float64{{0}, {1}, {10}, {11}},
		Y: [][]float64{{1}, {1}, {5}, {5}},
	}
	tr := New(Config{})
	if err := tr.FitIndices(d, []int{2, 3}); err != nil {
		t.Fatal(err)
	}
	// Trained only on the high cluster.
	if got := tr.Predict([]float64{0}); got[0] != 5 {
		t.Errorf("Predict = %v, want 5", got[0])
	}
	if err := tr.FitIndices(d, nil); err == nil {
		t.Error("empty indices should fail")
	}
}

func TestTreeMaxFeaturesRequiresRand(t *testing.T) {
	d := &ml.Dataset{X: [][]float64{{1, 2}}, Y: [][]float64{{1}}}
	tr := New(Config{MaxFeatures: 1})
	if err := tr.Fit(d); err == nil {
		t.Error("MaxFeatures without Rand should fail")
	}
}

func TestTreeMaxFeaturesSubsamples(t *testing.T) {
	// With MaxFeatures=1 and a fixed RNG, fitting still works and uses
	// one of the features.
	rng := randx.New(11)
	d := &ml.Dataset{
		X: [][]float64{{0, 5}, {1, 5}, {2, 6}, {3, 6}},
		Y: [][]float64{{0}, {0}, {1}, {1}},
	}
	tr := New(Config{MaxFeatures: 1, Rand: rng})
	if err := tr.Fit(d); err != nil {
		t.Fatal(err)
	}
	_ = tr.Predict([]float64{0, 5})
}

func TestTreePredictBeforeFitPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(Config{}).Predict([]float64{1})
}

func TestTreeDuplicateFeatureValues(t *testing.T) {
	// All X equal: no split possible, must yield a single mean leaf.
	d := &ml.Dataset{
		X: [][]float64{{1}, {1}, {1}},
		Y: [][]float64{{0}, {3}, {6}},
	}
	tr := New(Config{})
	if err := tr.Fit(d); err != nil {
		t.Fatal(err)
	}
	if tr.Leaves() != 1 {
		t.Errorf("Leaves = %d, want 1", tr.Leaves())
	}
	if got := tr.Predict([]float64{1}); got[0] != 3 {
		t.Errorf("Predict = %v, want mean 3", got[0])
	}
}

func TestTreeFeatureImportance(t *testing.T) {
	// Feature 0 fully determines the target; feature 1 is noise.
	rng := randx.New(21)
	n := 300
	X := make([][]float64, n)
	Y := make([][]float64, n)
	for i := range X {
		a := rng.Uniform(0, 1)
		X[i] = []float64{a, rng.Uniform(0, 1)}
		y := 0.0
		if a > 0.5 {
			y = 1
		}
		Y[i] = []float64{y}
	}
	tr := New(Config{MaxDepth: 3})
	if err := tr.Fit(&ml.Dataset{X: X, Y: Y}); err != nil {
		t.Fatal(err)
	}
	imp := tr.FeatureImportance()
	if len(imp) != 2 {
		t.Fatalf("importance length = %d", len(imp))
	}
	if imp[0] < 0.9 {
		t.Errorf("informative feature importance = %v, want > 0.9", imp[0])
	}
	if math.Abs(imp[0]+imp[1]-1) > 1e-12 {
		t.Errorf("importance does not sum to 1: %v", imp)
	}
}

func TestTreeFeatureImportanceAllZeroForLeaf(t *testing.T) {
	d := &ml.Dataset{X: [][]float64{{1}, {1}}, Y: [][]float64{{2}, {2}}}
	tr := New(Config{})
	if err := tr.Fit(d); err != nil {
		t.Fatal(err)
	}
	imp := tr.FeatureImportance()
	if imp[0] != 0 {
		t.Errorf("single-leaf importance = %v, want 0", imp)
	}
}

func TestTreeNaNRoutesRight(t *testing.T) {
	d := &ml.Dataset{
		X: [][]float64{{0}, {1}, {10}, {11}},
		Y: [][]float64{{1}, {1}, {5}, {5}},
	}
	tr := New(Config{})
	if err := tr.Fit(d); err != nil {
		t.Fatal(err)
	}
	// NaN fails `x <= threshold`, so it must take the right (high) branch
	// in both the flattened kernel and the reference walker.
	q := []float64{math.NaN()}
	if got := tr.Predict(q); got[0] != 5 {
		t.Errorf("flattened kernel routed NaN to %v, want right branch (5)", got[0])
	}
	if got := tr.PredictReference(q); got[0] != 5 {
		t.Errorf("reference walker routed NaN to %v, want right branch (5)", got[0])
	}
}

func TestTreeFlatMatchesReferenceWithNaNs(t *testing.T) {
	rng := randx.New(42)
	n, p := 120, 6
	d := &ml.Dataset{X: make([][]float64, n), Y: make([][]float64, n)}
	for i := range d.X {
		d.X[i] = make([]float64, p)
		for j := range d.X[i] {
			d.X[i][j] = rng.StdNormal()
		}
		d.Y[i] = []float64{d.X[i][0]*2 - d.X[i][3]}
	}
	tr := New(Config{MaxDepth: 6})
	if err := tr.Fit(d); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		q := make([]float64, p)
		for j := range q {
			q[j] = rng.StdNormal()
		}
		// Sprinkle NaNs to exercise the routing contract at interior splits.
		if i%3 == 0 {
			q[i%p] = math.NaN()
		}
		got, want := tr.Predict(q), tr.PredictReference(q)
		for j := range want {
			if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
				t.Fatalf("probe %d out %d: flattened %v != reference %v", i, j, got[j], want[j])
			}
		}
	}
}

// stumpTable is a valid one-feature, one-output stump: x <= 0.5 → 1,
// otherwise 5.
func stumpTable() *Table {
	return &Table{
		Feature:   []int32{0, Leaf, Leaf},
		Threshold: []float64{0.5, 0, 0},
		Left:      []int32{1, 0, 1},
		Right:     []int32{2, 0, 0},
		Values:    []float64{1, 5},
		Roots:     []int32{0},
		NOut:      1,
		NFeatures: 1,
	}
}

// TestDecodeRejectsHostileTables feeds the tree decoder tables that a
// walk could index out of, loop in, or read a wrong-sized payload from.
// Each must be rejected with ml.ErrWire before it can serve. The first
// two are regression cases: in the earlier pointer-tree format both
// decoded without error, the first then panicked in Predict (index out
// of range) and the second silently predicted [1 2] for its left leaf.
func TestDecodeRejectsHostileTables(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(tb *Table, imp *[]float64)
	}{
		{"split on feature 5 of a 1-feature model", func(tb *Table, _ *[]float64) { tb.Feature[0] = 5 }},
		{"leaves holding [1] and [2 3]", func(tb *Table, _ *[]float64) {
			tb.NOut, tb.Values, tb.Left[2] = 2, []float64{1, 2, 3}, 1
		}},
		{"leaf payload past the values block", func(tb *Table, _ *[]float64) { tb.Left[2] = 7 }},
		{"values left over after the last leaf", func(tb *Table, _ *[]float64) { tb.Values = append(tb.Values, 9) }},
		{"negative feature other than the leaf sentinel", func(tb *Table, _ *[]float64) { tb.Feature[0] = -2 }},
		{"child before its parent", func(tb *Table, _ *[]float64) { tb.Feature[2], tb.Left[2], tb.Right[2] = 0, 1, 0 }},
		{"child outside the table", func(tb *Table, _ *[]float64) { tb.Right[0] = 3 }},
		{"short column", func(tb *Table, _ *[]float64) { tb.Right = tb.Right[:2] }},
		{"root outside the table", func(tb *Table, _ *[]float64) { tb.Roots[0] = 3 }},
		{"two roots", func(tb *Table, _ *[]float64) { tb.Roots = []int32{0, 1} }},
		{"no roots", func(tb *Table, _ *[]float64) { tb.Roots = nil }},
		{"zero outputs", func(tb *Table, _ *[]float64) { tb.NOut = 0 }},
		{"importances for another width", func(_ *Table, imp *[]float64) { *imp = []float64{1, 0} }},
	}
	encode := func(mutate func(*Table, *[]float64)) []byte {
		tb, imp := stumpTable(), []float64{1}
		if mutate != nil {
			mutate(tb, &imp)
		}
		e := &ml.WireEnc{}
		if err := (&Tree{table: tb, importance: imp}).AppendWire(e); err != nil {
			t.Fatal(err)
		}
		return e.Bytes()
	}
	ok, err := DecodeWire(ml.NewWireDec(encode(nil)))
	if err != nil {
		t.Fatalf("valid stump: %v", err)
	}
	if lo, hi := ok.Predict([]float64{0}), ok.Predict([]float64{1}); lo[0] != 1 || hi[0] != 5 {
		t.Fatalf("valid stump predicts %v / %v, want 1 / 5", lo, hi)
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tr, err := DecodeWire(ml.NewWireDec(encode(tc.mutate)))
			if !errors.Is(err, ml.ErrWire) {
				t.Fatalf("decode returned (%v, %v), want ml.ErrWire", tr, err)
			}
		})
	}
}

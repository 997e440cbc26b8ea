// Package tree implements a multi-output CART regression tree with the
// variance-reduction (sum of per-output squared error) split criterion
// used by scikit-learn's DecisionTreeRegressor. It is the base learner
// for the random forest, and it owns Table, the node table that the
// tree, each forest member and each gradient-boosting output are fitted
// into, served from and stored as.
package tree

import (
	"fmt"
	"sort"

	"repro/internal/ml"
	"repro/internal/numeric"
	"repro/internal/randx"
)

// Config controls tree growth.
type Config struct {
	// MaxDepth bounds tree depth; <= 0 means unlimited.
	MaxDepth int
	// MinSamplesLeaf is the minimum number of examples in a leaf
	// (default 1).
	MinSamplesLeaf int
	// MinSamplesSplit is the minimum number of examples required to
	// consider splitting a node (default 2).
	MinSamplesSplit int
	// MaxFeatures is the number of features sampled (without
	// replacement) at each split; <= 0 means all features. Random
	// forests use this for decorrelation.
	MaxFeatures int
	// Rand supplies feature-subsampling randomness; required when
	// MaxFeatures is in effect, ignored otherwise.
	Rand *randx.RNG
}

func (c Config) withDefaults() Config {
	if c.MinSamplesLeaf < 1 {
		c.MinSamplesLeaf = 1
	}
	if c.MinSamplesSplit < 2 {
		c.MinSamplesSplit = 2
	}
	return c
}

// Tree is a fitted regression tree.
type Tree struct {
	cfg   Config
	table *Table // one tree, root at row 0
	// depth and leaves are bookkeeping for tests and reports.
	depth  int
	leaves int
	// importance accumulates the total impurity (SSE) reduction
	// attributed to each feature — the classic "gain" importance.
	importance []float64
}

// FeatureImportance returns the per-feature impurity-reduction shares of
// the fitted tree, normalized to sum to 1 (all zeros when the tree is a
// single leaf). The slice is a copy.
func (t *Tree) FeatureImportance() []float64 {
	out := make([]float64, len(t.importance))
	total := numeric.Sum(t.importance)
	if total <= 0 {
		return out
	}
	for i, v := range t.importance {
		out[i] = v / total
	}
	return out
}

// New returns an unfitted tree with the given configuration.
func New(cfg Config) *Tree { return &Tree{cfg: cfg.withDefaults()} }

// Name implements ml.Regressor.
func (t *Tree) Name() string { return "CART" }

// Depth returns the depth of the fitted tree (0 for a stump).
func (t *Tree) Depth() int { return t.depth }

// Leaves returns the number of leaves of the fitted tree.
func (t *Tree) Leaves() int { return t.leaves }

// Fit grows the tree on d.
func (t *Tree) Fit(d *ml.Dataset) error {
	if err := d.Validate(); err != nil {
		return fmt.Errorf("tree: %w", err)
	}
	if t.cfg.MaxFeatures > 0 && t.cfg.Rand == nil {
		return fmt.Errorf("tree: MaxFeatures requires a Rand source")
	}
	idx := make([]int, d.NumExamples())
	for i := range idx {
		idx[i] = i
	}
	t.fit(d, idx)
	return nil
}

// FitIndices grows the tree on the subset of d given by idx (used by the
// forest for bootstrap samples without copying rows).
func (t *Tree) FitIndices(d *ml.Dataset, idx []int) error {
	if err := d.Validate(); err != nil {
		return fmt.Errorf("tree: %w", err)
	}
	if t.cfg.MaxFeatures > 0 && t.cfg.Rand == nil {
		return fmt.Errorf("tree: MaxFeatures requires a Rand source")
	}
	if len(idx) == 0 {
		return fmt.Errorf("tree: empty index set")
	}
	t.fit(d, append([]int(nil), idx...))
	return nil
}

// fit grows the tree on the rows idx straight into a fresh table.
func (t *Tree) fit(d *ml.Dataset, idx []int) {
	t.depth = 0
	t.leaves = 0
	t.importance = make([]float64, d.NumFeatures())
	t.table = &Table{NOut: d.NumOutputs(), NFeatures: d.NumFeatures()}
	t.table.AddTree()
	t.grow(d, idx, 0)
	t.table.Trim()
}

// meanTarget computes the mean target vector over idx.
func meanTarget(d *ml.Dataset, idx []int) []float64 {
	out := make([]float64, d.NumOutputs())
	for _, i := range idx {
		for j, v := range d.Y[i] {
			out[j] += v
		}
	}
	inv := 1 / float64(len(idx))
	for j := range out {
		out[j] *= inv
	}
	return out
}

// sse computes the total squared error of idx around their mean,
// summed over outputs — the impurity whose reduction CART maximizes.
func sse(d *ml.Dataset, idx []int) float64 {
	mean := meanTarget(d, idx)
	var s float64
	for _, i := range idx {
		for j, v := range d.Y[i] {
			dv := v - mean[j]
			s += dv * dv
		}
	}
	return s
}

// grow appends the subtree for idx to the table in preorder and returns
// its root row.
func (t *Tree) grow(d *ml.Dataset, idx []int, depth int) int32 {
	if depth > t.depth {
		t.depth = depth
	}
	leaf := func() int32 {
		t.leaves++
		return t.table.AddLeaf(meanTarget(d, idx))
	}
	if len(idx) < t.cfg.MinSamplesSplit || (t.cfg.MaxDepth > 0 && depth >= t.cfg.MaxDepth) {
		return leaf()
	}
	feat, thr, gain, ok := t.bestSplit(d, idx)
	if !ok {
		return leaf()
	}
	var left, right []int
	for _, i := range idx {
		if d.X[i][feat] <= thr {
			left = append(left, i)
		} else {
			right = append(right, i)
		}
	}
	if len(left) < t.cfg.MinSamplesLeaf || len(right) < t.cfg.MinSamplesLeaf {
		return leaf()
	}
	t.importance[feat] += gain
	i := t.table.AddSplit(feat, thr)
	l := t.grow(d, left, depth+1)
	r := t.grow(d, right, depth+1)
	t.table.Left[i], t.table.Right[i] = l, r
	return i
}

// bestSplit scans (a subsample of) features for the split that maximally
// reduces total squared error, using the classic sorted-prefix-sum scan.
func (t *Tree) bestSplit(d *ml.Dataset, idx []int) (feature int, threshold, gain float64, ok bool) {
	nf := d.NumFeatures()
	features := make([]int, nf)
	for i := range features {
		features[i] = i
	}
	if t.cfg.MaxFeatures > 0 && t.cfg.MaxFeatures < nf {
		features = t.cfg.Rand.SampleWithoutReplacement(nf, t.cfg.MaxFeatures)
		sort.Ints(features) // determinism independent of sample order
	}
	no := d.NumOutputs()
	n := len(idx)

	parentSSE := sse(d, idx)
	best := parentSSE - 1e-12 // require strictly positive gain
	found := false

	order := make([]int, n)
	// Prefix sums of targets and squared targets over the sorted order.
	sumL := make([]float64, no)
	sumAll := make([]float64, no)
	var sqAll float64
	for _, i := range idx {
		for j, v := range d.Y[i] {
			sumAll[j] += v
			sqAll += v * v
		}
	}

	for _, f := range features {
		copy(order, idx)
		sort.Slice(order, func(a, b int) bool {
			if d.X[order[a]][f] != d.X[order[b]][f] {
				return d.X[order[a]][f] < d.X[order[b]][f]
			}
			return order[a] < order[b]
		})
		for j := range sumL {
			sumL[j] = 0
		}
		var sqL float64
		for pos := 0; pos < n-1; pos++ {
			i := order[pos]
			for j, v := range d.Y[i] {
				sumL[j] += v
				sqL += v * v
			}
			xv, xn := d.X[i][f], d.X[order[pos+1]][f]
			if xv == xn {
				continue // cannot split between equal values
			}
			nl, nr := float64(pos+1), float64(n-pos-1)
			if int(nl) < t.cfg.MinSamplesLeaf || int(nr) < t.cfg.MinSamplesLeaf {
				continue
			}
			// SSE_left + SSE_right = Σy² − Σ_left²/n_l − Σ_right²/n_r,
			// accumulated across outputs.
			var childSSE float64
			childSSE = sqAll
			for j := 0; j < no; j++ {
				sr := sumAll[j] - sumL[j]
				childSSE -= sumL[j]*sumL[j]/nl + sr*sr/nr
			}
			if childSSE < best {
				best = childSSE
				feature = f
				threshold = (xv + xn) / 2
				found = true
			}
		}
	}
	if !found {
		return 0, 0, 0, false
	}
	return feature, threshold, parentSSE - best, true
}

// Predict implements ml.Regressor.
func (t *Tree) Predict(x []float64) []float64 {
	//lint:allow alloccheck row API allocates only the returned vector by contract; batch callers route through the ensemble kernels
	out := make([]float64, t.NumOutputs())
	t.PredictInto(x, out)
	return out
}

// PredictInto writes the prediction for x into out (len NumOutputs)
// without allocating.
func (t *Tree) PredictInto(x, out []float64) {
	if t.table == nil {
		panic("tree: Predict before Fit")
	}
	copy(out, t.table.Leaf(0, x))
}

// AddLeafInto adds the leaf payload for x into acc — the forest's
// accumulation hot path, one table walk and nOut additions, zero
// allocation.
func (t *Tree) AddLeafInto(x, acc []float64) {
	for j, v := range t.table.Leaf(0, x) {
		acc[j] += v
	}
}

// NumOutputs returns the fitted output arity.
func (t *Tree) NumOutputs() int {
	if t.table == nil {
		panic("tree: NumOutputs before Fit")
	}
	return t.table.NOut
}

// NumFeatures returns the input width the tree was fitted on.
func (t *Tree) NumFeatures() int { return t.table.NFeatures }

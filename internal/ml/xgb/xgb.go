// Package xgb implements gradient-boosted regression trees in the style
// of XGBoost (Chen & Guestrin 2016): trees are grown greedily on the
// second-order Taylor expansion of the loss, with L2-regularized leaf
// weights, minimum-gain (γ) pruning, shrinkage, and row/column
// subsampling. For the squared-error objective used here the gradient
// is (ŷ − y) and the hessian is 1, so the leaf weight is
// −ΣG/(ΣH + λ) and the split gain is the standard XGBoost formula
//
//	gain = ½·[G_L²/(H_L+λ) + G_R²/(H_R+λ) − G²/(H+λ)] − γ.
//
// Multi-output targets are handled by boosting one ensemble per output,
// matching how XGBoost is applied to multi-output regression in the
// paper's Python workflow.
package xgb

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/ml"
	"repro/internal/ml/tree"
	"repro/internal/numeric"
	"repro/internal/parallel"
	"repro/internal/randx"
)

// Config controls boosting.
type Config struct {
	// NumRounds is the number of boosting rounds per output (default 100).
	NumRounds int
	// LearningRate is the shrinkage η (default 0.1).
	LearningRate float64
	// MaxDepth per tree (default 3).
	MaxDepth int
	// Lambda is the L2 regularization on leaf weights. Zero selects the
	// default of 1; any negative value explicitly disables regularization
	// (λ = 0), mirroring the forest-style MaxFeatures sentinel.
	Lambda float64
	// Gamma is the minimum split gain (default 0).
	Gamma float64
	// MinChildWeight is the minimum hessian sum per child (default 1).
	MinChildWeight float64
	// Subsample is the row-sampling fraction per tree in (0, 1]
	// (default 1).
	Subsample float64
	// ColSample is the feature-sampling fraction per tree in (0, 1]
	// (default 1).
	ColSample float64
	// Seed makes training deterministic.
	Seed uint64
}

func (c Config) withDefaults() Config {
	if c.NumRounds <= 0 {
		c.NumRounds = 100
	}
	if c.LearningRate <= 0 {
		c.LearningRate = 0.1
	}
	if c.MaxDepth <= 0 {
		c.MaxDepth = 3
	}
	if c.Lambda == 0 {
		c.Lambda = 1
	} else if c.Lambda < 0 {
		c.Lambda = 0 // explicit "no regularization" sentinel
	}
	if c.MinChildWeight <= 0 {
		c.MinChildWeight = 1
	}
	if c.Subsample <= 0 || c.Subsample > 1 {
		c.Subsample = 1
	}
	if c.ColSample <= 0 || c.ColSample > 1 {
		c.ColSample = 1
	}
	return c
}

// Regressor is a fitted gradient-boosting model.
type Regressor struct {
	cfg       Config
	baseScore []float64     // per-output initial prediction
	tables    []*tree.Table // per output: every round's tree, one-value leaves
}

// New returns an unfitted booster.
func New(cfg Config) *Regressor { return &Regressor{cfg: cfg.withDefaults()} }

// Name implements ml.Regressor.
func (x *Regressor) Name() string {
	return fmt.Sprintf("XGBoost(rounds=%d,depth=%d,eta=%g)", x.cfg.NumRounds, x.cfg.MaxDepth, x.cfg.LearningRate)
}

// Fit trains one boosted ensemble per output dimension. The outputs are
// independent given their pre-split random streams, so they are boosted
// concurrently on the shared worker pool (bounded by GOMAXPROCS); the
// fitted model is bit-identical to a sequential fit regardless of
// worker count. On error the regressor is reset to its unfitted state.
func (x *Regressor) Fit(d *ml.Dataset) error {
	x.baseScore, x.tables = nil, nil
	if err := d.Validate(); err != nil {
		return fmt.Errorf("xgb: %w", err)
	}
	n := d.NumExamples()
	nOut := d.NumOutputs()
	rng := randx.New(x.cfg.Seed ^ 0xABCDEF0123456789)
	// Output out's row/column subsampling depends only on stream out,
	// never on what the other workers consume.
	outRNGs := rng.SplitN(nOut)
	baseScore := make([]float64, nOut)
	tables := make([]*tree.Table, nOut)
	//lint:allow ctxflow Fit is synchronous and bit-reproducible; a caller deadline would make training results depend on timing
	err := parallel.ForEach(context.Background(), nOut, 0, func(_ context.Context, out int) error {
		y := make([]float64, n)
		for i := range y {
			y[i] = d.Y[i][out]
		}
		base := numeric.Mean(y)
		baseScore[out] = base

		pred := make([]float64, n)
		for i := range pred {
			pred[i] = base
		}
		grad := make([]float64, n)
		hess := make([]float64, n)
		outRNG := outRNGs[out]
		tab := &tree.Table{NOut: 1, NFeatures: d.NumFeatures()}
		for round := 0; round < x.cfg.NumRounds; round++ {
			for i := range grad {
				grad[i] = pred[i] - y[i] // squared loss
				hess[i] = 1
			}
			rows := x.sampleRows(outRNG, n)
			cols := x.sampleCols(outRNG, d.NumFeatures())
			tab.AddTree()
			root := x.buildTree(tab, d, rows, cols, grad, hess, 0)
			for i := 0; i < n; i++ {
				pred[i] += x.cfg.LearningRate * tab.Leaf(root, d.X[i])[0]
			}
		}
		tab.Trim()
		tables[out] = tab
		return nil
	})
	if err != nil {
		return err
	}
	x.baseScore = baseScore
	x.tables = tables
	return nil
}

func (x *Regressor) sampleRows(rng *randx.RNG, n int) []int {
	if x.cfg.Subsample >= 1 {
		idx := make([]int, n)
		for i := range idx {
			idx[i] = i
		}
		return idx
	}
	k := int(x.cfg.Subsample * float64(n))
	if k < 1 {
		k = 1
	}
	idx := rng.SampleWithoutReplacement(n, k)
	sort.Ints(idx)
	return idx
}

func (x *Regressor) sampleCols(rng *randx.RNG, nf int) []int {
	if x.cfg.ColSample >= 1 {
		cols := make([]int, nf)
		for i := range cols {
			cols[i] = i
		}
		return cols
	}
	k := int(x.cfg.ColSample * float64(nf))
	if k < 1 {
		k = 1
	}
	cols := rng.SampleWithoutReplacement(nf, k)
	sort.Ints(cols)
	return cols
}

// buildTree grows one regularized tree on the gradient statistics,
// appending it to tab in preorder, and returns its root row.
func (x *Regressor) buildTree(tab *tree.Table, d *ml.Dataset, rows, cols []int, grad, hess []float64, depth int) int32 {
	var gSum, hSum float64
	for _, i := range rows {
		gSum += grad[i]
		hSum += hess[i]
	}
	leaf := func() int32 {
		return tab.AddLeaf([]float64{-gSum / (hSum + x.cfg.Lambda)})
	}
	if depth >= x.cfg.MaxDepth || len(rows) < 2 {
		return leaf()
	}

	parentScore := gSum * gSum / (hSum + x.cfg.Lambda)
	bestGain := 0.0
	bestFeat, bestThr := -1, 0.0

	order := make([]int, len(rows))
	for _, f := range cols {
		copy(order, rows)
		sort.Slice(order, func(a, b int) bool {
			if d.X[order[a]][f] != d.X[order[b]][f] {
				return d.X[order[a]][f] < d.X[order[b]][f]
			}
			return order[a] < order[b]
		})
		var gl, hl float64
		for pos := 0; pos < len(order)-1; pos++ {
			i := order[pos]
			gl += grad[i]
			hl += hess[i]
			xv, xn := d.X[i][f], d.X[order[pos+1]][f]
			if xv == xn {
				continue
			}
			gr := gSum - gl
			hr := hSum - hl
			if hl < x.cfg.MinChildWeight || hr < x.cfg.MinChildWeight {
				continue
			}
			gain := 0.5*(gl*gl/(hl+x.cfg.Lambda)+gr*gr/(hr+x.cfg.Lambda)-parentScore) - x.cfg.Gamma
			if gain > bestGain {
				bestGain = gain
				bestFeat = f
				bestThr = (xv + xn) / 2
			}
		}
	}
	if bestFeat < 0 {
		return leaf()
	}
	var left, right []int
	for _, i := range rows {
		if d.X[i][bestFeat] <= bestThr {
			left = append(left, i)
		} else {
			right = append(right, i)
		}
	}
	if len(left) == 0 || len(right) == 0 {
		return leaf()
	}
	i := tab.AddSplit(bestFeat, bestThr)
	l := x.buildTree(tab, d, left, cols, grad, hess, depth+1)
	r := x.buildTree(tab, d, right, cols, grad, hess, depth+1)
	tab.Left[i], tab.Right[i] = l, r
	return i
}

// Predict implements ml.Regressor.
func (x *Regressor) Predict(in []float64) []float64 {
	//lint:allow alloccheck row API allocates only the returned vector by contract; the batch path fills caller buffers via PredictBatchInto
	out := make([]float64, len(x.tables))
	x.PredictInto(in, out)
	return out
}

// PredictInto writes the prediction for in into out (len NumOutputs)
// without allocating: per output, the base score plus every round's
// LearningRate-scaled leaf weight, accumulated in boosting order.
func (x *Regressor) PredictInto(in, out []float64) {
	if x.tables == nil {
		panic("xgb: Predict before Fit")
	}
	eta := x.cfg.LearningRate
	for j, tab := range x.tables {
		p := x.baseScore[j]
		for _, root := range tab.Roots {
			p += eta * tab.Leaf(root, in)[0]
		}
		out[j] = p
	}
}

// NumOutputs implements ml.BatchIntoPredictor.
func (x *Regressor) NumOutputs() int { return len(x.tables) }

// NumFeatures returns the input width the booster was fitted on.
func (x *Regressor) NumFeatures() int { return x.tables[0].NFeatures }

// PredictBatchInto implements ml.BatchIntoPredictor: rows fan out
// across the shared worker pool (bounded by GOMAXPROCS) and each is
// filled in place by the allocation-free kernel. Row results are
// independent, so the output is bit-identical at any worker count.
func (x *Regressor) PredictBatchInto(ctx context.Context, X, out [][]float64) {
	if x.tables == nil {
		panic("xgb: Predict before Fit")
	}
	_ = parallel.ForEach(ctx, len(X), 0, func(_ context.Context, i int) error {
		x.PredictInto(X[i], out[i])
		return nil
	})
}

package tree

import (
	"fmt"
	"slices"

	"repro/internal/ml"
)

// Table is the node table every tree model is fitted into, served from
// and stored as: the CART tree, each forest member and each boosting
// output's whole ensemble. Rows are struct-of-arrays columns in
// preorder, so the hot left spine stays cache-adjacent and a walk is an
// index loop with no pointer chasing and no allocation.
//
// Feature[i] >= 0 marks a split whose children are Left[i]/Right[i];
// Feature[i] == Leaf marks a leaf whose payload is
// Values[Left[i] : Left[i]+NOut]. Roots[r] is tree r's root row.
// Leaf payloads are packed contiguously in row order.
type Table struct {
	Feature   []int32
	Threshold []float64
	Left      []int32
	Right     []int32
	Values    []float64
	Roots     []int32
	NOut      int
	NFeatures int
}

// Leaf is the Feature sentinel marking a leaf row.
const Leaf = int32(-1)

// AddTree starts a new tree: the next row appended becomes its root.
func (t *Table) AddTree() { t.Roots = append(t.Roots, int32(len(t.Feature))) }

func (t *Table) addRow(feature int32, threshold float64) int32 {
	i := int32(len(t.Feature))
	t.Feature = append(t.Feature, feature)
	t.Threshold = append(t.Threshold, threshold)
	t.Left = append(t.Left, 0)
	t.Right = append(t.Right, 0)
	return i
}

// AddLeaf appends a leaf row carrying payload (NOut values) and returns
// its index.
func (t *Table) AddLeaf(payload []float64) int32 {
	i := t.addRow(Leaf, 0)
	t.Left[i] = int32(len(t.Values))
	t.Values = append(t.Values, payload...)
	return i
}

// AddSplit appends a split row and returns its index. Builders then
// grow the left subtree, then the right, and set Left[i] and Right[i]
// to their roots, which keeps rows in preorder.
func (t *Table) AddSplit(feature int, threshold float64) int32 {
	return t.addRow(int32(feature), threshold)
}

// Trim reallocates the columns to their lengths, dropping the growth
// slack appends leave behind; builders call it once the table is done.
func (t *Table) Trim() {
	t.Feature = slices.Clone(t.Feature)
	t.Threshold = slices.Clone(t.Threshold)
	t.Left = slices.Clone(t.Left)
	t.Right = slices.Clone(t.Right)
	t.Values = slices.Clone(t.Values)
	t.Roots = slices.Clone(t.Roots)
}

// Leaf routes x from root row to its leaf and returns a view of the
// payload (do not mutate). `x <= threshold` is false for NaN, so a NaN
// feature follows the right branch.
func (t *Table) Leaf(root int32, x []float64) []float64 {
	ft, th, lt, rt := t.Feature, t.Threshold, t.Left, t.Right
	i := root
	for ft[i] >= 0 {
		if x[ft[i]] <= th[i] {
			i = lt[i]
		} else {
			i = rt[i]
		}
	}
	off := lt[i]
	return t.Values[off : off+int32(t.NOut)]
}

// AppendWire writes the table's columns.
func (t *Table) AppendWire(e *ml.WireEnc) {
	e.Int(t.NOut)
	e.Int(t.NFeatures)
	e.Int32s(t.Roots)
	e.Int32s(t.Feature)
	e.Floats(t.Threshold)
	e.Int32s(t.Left)
	e.Int32s(t.Right)
	e.Floats(t.Values)
}

// DecodeTable reads a table written by AppendWire and rejects, with
// ml.ErrWire, any table a walk could index out of, loop in, or read a
// wrong-sized payload from.
func DecodeTable(d *ml.WireDec) (*Table, error) {
	t := &Table{NOut: d.Int(), NFeatures: d.Int()}
	t.Roots = d.Int32s()
	t.Feature = d.Int32s()
	t.Threshold = d.Floats()
	t.Left = d.Int32s()
	t.Right = d.Int32s()
	t.Values = d.Floats()
	if err := d.Err(); err != nil {
		return nil, fmt.Errorf("tree: decode table: %w", err)
	}
	if err := t.validate(); err != nil {
		return nil, fmt.Errorf("%w: tree table: %w", ml.ErrWire, err)
	}
	return t, nil
}

// validate checks the invariants Leaf relies on: equal column lengths,
// roots in range, children strictly after their parent and inside the
// table (so every walk ends), split features below NFeatures, and leaf
// payloads of NOut values packed contiguously in row order.
func (t *Table) validate() error {
	n := len(t.Feature)
	if t.NOut < 1 || t.NFeatures < 1 {
		return fmt.Errorf("%d outputs, %d features", t.NOut, t.NFeatures)
	}
	if len(t.Threshold) != n || len(t.Left) != n || len(t.Right) != n {
		return fmt.Errorf("column lengths %d/%d/%d/%d", n, len(t.Threshold), len(t.Left), len(t.Right))
	}
	if len(t.Roots) == 0 {
		return fmt.Errorf("no trees")
	}
	for r, root := range t.Roots {
		if root < 0 || int(root) >= n {
			return fmt.Errorf("root %d at row %d of %d", r, root, n)
		}
	}
	next := 0
	for i, f := range t.Feature {
		switch {
		case f == Leaf:
			if int(t.Left[i]) != next || next+t.NOut > len(t.Values) {
				return fmt.Errorf("leaf row %d payload at %d, want %d of %d values", i, t.Left[i], next, len(t.Values))
			}
			next += t.NOut
		case f < 0 || int(f) >= t.NFeatures:
			return fmt.Errorf("row %d splits on feature %d of %d", i, f, t.NFeatures)
		case int(t.Left[i]) <= i || int(t.Right[i]) <= i || int(t.Left[i]) >= n || int(t.Right[i]) >= n:
			return fmt.Errorf("row %d has children %d/%d in a %d-row table", i, t.Left[i], t.Right[i], n)
		}
	}
	if next != len(t.Values) {
		return fmt.Errorf("%d leaf values for %d payload values", len(t.Values), next)
	}
	return nil
}

package tree

import (
	"fmt"

	"repro/internal/ml"
)

// AppendWire serializes the fitted tree: growth configuration,
// bookkeeping, feature importances, and the node table. The
// feature-subsampling RNG is deliberately not serialized — a decoded
// tree predicts bit-identically but cannot be refitted with MaxFeatures
// in effect.
func (t *Tree) AppendWire(e *ml.WireEnc) error {
	if t.table == nil {
		return fmt.Errorf("tree: encode before Fit")
	}
	e.Int(t.cfg.MaxDepth)
	e.Int(t.cfg.MinSamplesLeaf)
	e.Int(t.cfg.MinSamplesSplit)
	e.Int(t.cfg.MaxFeatures)
	e.Int(t.depth)
	e.Int(t.leaves)
	e.Floats(t.importance)
	t.table.AppendWire(e)
	return nil
}

// DecodeWire reconstructs a fitted tree written by AppendWire.
func DecodeWire(d *ml.WireDec) (*Tree, error) {
	t := &Tree{}
	t.cfg.MaxDepth = d.Int()
	t.cfg.MinSamplesLeaf = d.Int()
	t.cfg.MinSamplesSplit = d.Int()
	t.cfg.MaxFeatures = d.Int()
	t.depth = d.Int()
	t.leaves = d.Int()
	t.importance = d.Floats()
	if err := d.Err(); err != nil {
		return nil, fmt.Errorf("tree: decode: %w", err)
	}
	table, err := DecodeTable(d)
	if err != nil {
		return nil, err
	}
	if len(table.Roots) != 1 || table.Roots[0] != 0 || len(t.importance) != table.NFeatures {
		return nil, fmt.Errorf("%w: tree with %d roots, %d importances for %d features",
			ml.ErrWire, len(table.Roots), len(t.importance), table.NFeatures)
	}
	t.table = table
	return t, nil
}

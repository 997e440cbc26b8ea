package xgb

import (
	"fmt"

	"repro/internal/ml"
	"repro/internal/ml/tree"
)

// AppendWire serializes the fitted booster: the (defaulted)
// configuration, per-output base scores, and every output's node table
// with its trees in boosting order. Prediction accumulates
// LearningRate-scaled leaf weights in that order, so a decoded booster
// predicts bit-identically to the original.
func (x *Regressor) AppendWire(e *ml.WireEnc) error {
	if x.tables == nil {
		return fmt.Errorf("xgb: encode before Fit")
	}
	e.Int(x.cfg.NumRounds)
	e.F64(x.cfg.LearningRate)
	e.Int(x.cfg.MaxDepth)
	e.F64(x.cfg.Lambda)
	e.F64(x.cfg.Gamma)
	e.F64(x.cfg.MinChildWeight)
	e.F64(x.cfg.Subsample)
	e.F64(x.cfg.ColSample)
	e.U64(x.cfg.Seed)
	e.Floats(x.baseScore)
	for _, tab := range x.tables {
		tab.AppendWire(e)
	}
	return nil
}

// DecodeWire reconstructs a fitted booster written by AppendWire: one
// single-output table per base score, all over the same features.
func DecodeWire(d *ml.WireDec) (*Regressor, error) {
	x := &Regressor{}
	x.cfg.NumRounds = d.Int()
	x.cfg.LearningRate = d.F64()
	x.cfg.MaxDepth = d.Int()
	x.cfg.Lambda = d.F64()
	x.cfg.Gamma = d.F64()
	x.cfg.MinChildWeight = d.F64()
	x.cfg.Subsample = d.F64()
	x.cfg.ColSample = d.F64()
	x.cfg.Seed = d.U64()
	x.baseScore = d.Floats()
	if err := d.Err(); err != nil {
		return nil, fmt.Errorf("xgb: decode: %w", err)
	}
	if len(x.baseScore) == 0 {
		return nil, fmt.Errorf("%w: booster with no outputs", ml.ErrWire)
	}
	x.tables = make([]*tree.Table, len(x.baseScore))
	for out := range x.tables {
		tab, err := tree.DecodeTable(d)
		if err != nil {
			return nil, fmt.Errorf("xgb: output %d: %w", out, err)
		}
		x.tables[out] = tab
		if tab.NOut != 1 || tab.NFeatures != x.tables[0].NFeatures {
			return nil, fmt.Errorf("%w: xgb output %d table has %d outputs over %d features",
				ml.ErrWire, out, tab.NOut, tab.NFeatures)
		}
	}
	return x, nil
}

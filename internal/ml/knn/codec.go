package knn

import (
	"fmt"

	"repro/internal/ml"
)

// AppendWire serializes the fitted kNN model: hyperparameters, the
// fitted scaler (when standardizing), and the stored training set.
// Prediction is a deterministic scan over the stored rows, so a decoded
// model predicts bit-identically to the original.
func (r *Regressor) AppendWire(e *ml.WireEnc) error {
	if r.x == nil {
		return fmt.Errorf("knn: encode before Fit")
	}
	e.Int(r.K)
	e.U8(uint8(r.Metric))
	e.U8(uint8(r.Weighting))
	e.Bool(r.Standardize)
	e.Bool(r.scaler != nil)
	if r.scaler != nil {
		r.scaler.AppendWire(e)
	}
	e.FloatRows(r.x)
	e.FloatRows(r.y)
	return nil
}

// DecodeWire reconstructs a fitted kNN model written by AppendWire.
func DecodeWire(d *ml.WireDec) (*Regressor, error) {
	r := &Regressor{}
	r.K = d.Int()
	r.Metric = Metric(d.U8())
	r.Weighting = Weighting(d.U8())
	r.Standardize = d.Bool()
	if d.Bool() {
		s, err := ml.DecodeScaler(d)
		if err != nil {
			return nil, fmt.Errorf("knn: decode: %w", err)
		}
		r.scaler = s
	}
	r.x = d.FloatRows()
	r.y = d.FloatRows()
	if err := d.Err(); err != nil {
		return nil, fmt.Errorf("knn: decode: %w", err)
	}
	if r.K < 1 || len(r.x) == 0 || len(r.x) != len(r.y) {
		return nil, fmt.Errorf("%w: knn with k=%d, %d/%d stored rows", ml.ErrWire, r.K, len(r.x), len(r.y))
	}
	if r.Standardize && r.scaler == nil {
		return nil, fmt.Errorf("%w: standardizing knn without a scaler", ml.ErrWire)
	}
	// The flattened kernel assumes a rectangular training set; reject
	// ragged rows (possible in a corrupt buffer) before building it.
	for i, row := range r.x {
		if len(row) != len(r.x[0]) {
			return nil, fmt.Errorf("%w: knn row %d has %d features, want %d", ml.ErrWire, i, len(row), len(r.x[0]))
		}
	}
	for i, row := range r.y {
		if len(row) != len(r.y[0]) {
			return nil, fmt.Errorf("%w: knn target row %d has %d outputs, want %d", ml.ErrWire, i, len(row), len(r.y[0]))
		}
	}
	if len(r.y[0]) == 0 {
		return nil, fmt.Errorf("%w: knn with zero outputs", ml.ErrWire)
	}
	if r.scaler != nil && len(r.scaler.Means) != len(r.x[0]) {
		return nil, fmt.Errorf("%w: knn scaler has %d features, rows have %d", ml.ErrWire, len(r.scaler.Means), len(r.x[0]))
	}
	// Warm-loaded models serve through the same flattened kernel as
	// freshly fitted ones.
	r.finalize()
	return r, nil
}

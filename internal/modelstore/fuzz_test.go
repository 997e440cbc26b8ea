package modelstore

import (
	"encoding/binary"
	"hash/crc32"
	"math"
	"testing"

	"repro/internal/ml"
	"repro/internal/ml/forest"
	"repro/internal/ml/knn"
	"repro/internal/ml/xgb"
)

// FuzzDecode drives hostile payloads through every model codec. Each
// input is normalized into a sealed current-version envelope (magic,
// version, payload length and CRC rewritten), so mutations reach the
// codecs instead of dying at the checksum. Decoding must never panic,
// and any model that decodes must predict on a row of its recorded
// feature width, without panicking, a vector of NumOutputs values.
func FuzzDecode(f *testing.F) {
	d := testDataset(9)
	for _, reg := range []ml.Regressor{
		forest.New(forest.Config{NumTrees: 2, MaxDepth: 3, Seed: 1}),
		xgb.New(xgb.Config{NumRounds: 2, MaxDepth: 2, Seed: 1}),
		knn.New(3),
	} {
		if err := reg.Fit(d); err != nil {
			f.Fatal(err)
		}
		data, err := Encode(reg, 1)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < headerSize+trailerSize {
			return
		}
		data = append([]byte(nil), data...)
		copy(data, magic)
		binary.LittleEndian.PutUint16(data[4:6], FormatVersion)
		body := len(data) - trailerSize
		binary.LittleEndian.PutUint32(data[16:20], uint32(body-headerSize))
		binary.LittleEndian.PutUint32(data[body:], crc32.ChecksumIEEE(data[:body]))

		reg, _, err := Decode(data)
		if err != nil {
			return
		}
		m, ok := reg.(interface {
			ml.BatchIntoPredictor
			NumFeatures() int
		})
		if !ok {
			t.Fatalf("%T decoded without NumFeatures/NumOutputs", reg)
		}
		x := make([]float64, m.NumFeatures())
		for j := range x {
			x[j] = float64(j%5) - 2
		}
		if len(x) > 1 {
			x[1] = math.NaN()
		}
		if got := reg.Predict(x); len(got) != m.NumOutputs() {
			t.Fatalf("%T predicted %d values, NumOutputs is %d", reg, len(got), m.NumOutputs())
		}
	})
}

package ml_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"testing"

	"repro/internal/ml"
	"repro/internal/ml/forest"
	"repro/internal/ml/tree"
	"repro/internal/ml/xgb"
	"repro/internal/randx"
)

// digestDataset is a small seeded multi-output problem with nonlinear,
// interacting targets, so every tree family grows real depth.
func digestDataset(seed uint64) *ml.Dataset {
	rng := randx.New(seed)
	const n, p, q = 40, 16, 4
	d := &ml.Dataset{X: make([][]float64, n), Y: make([][]float64, n)}
	for i := range d.X {
		x := make([]float64, p)
		for j := range x {
			x[j] = rng.StdNormal()
		}
		d.X[i] = x
		d.Y[i] = []float64{
			x[0]*x[1] + 0.1*rng.StdNormal(),
			math.Abs(x[2]) - x[3],
			math.Sin(2*x[4]) + x[5]*x[5],
			x[6] + 0.2*rng.StdNormal(),
		}
	}
	return d
}

// predictionDigest hashes the IEEE-754 bits of every prediction on a
// fixed probe set: random rows, every third carrying a NaN feature so
// the NaN-routes-right contract is part of what is pinned.
func predictionDigest(reg ml.Regressor, p int, seed uint64) string {
	rng := randx.New(seed ^ 0xD16E57)
	h := sha256.New()
	var b [8]byte
	x := make([]float64, p)
	for q := 0; q < 60; q++ {
		for j := range x {
			x[j] = rng.Uniform(-3, 3)
		}
		if q%3 == 0 {
			x[q%p] = math.NaN()
		}
		for _, v := range reg.Predict(x) {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			h.Write(b[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// wireCodec is the codec surface shared by the tree families.
type wireCodec interface {
	AppendWire(e *ml.WireEnc) error
}

// TestTreeFamilyPredictionDigests pins the prediction bits of tree,
// forest and xgb at the serving configurations (100 trees; 60 rounds,
// depth 3, η 0.12, subsample 0.9, colsample 0.8) for three seeds. The
// digests were recorded before the tree models moved to one node table;
// any change to fitting, the node layout, traversal, NaN routing or the
// codecs that moves a single bit fails here. Each model is checked as
// fitted and after a wire round trip.
func TestTreeFamilyPredictionDigests(t *testing.T) {
	want := map[string]string{
		"tree/1":   "28750080f7d46c0170783e2f4d7600b80ebf59f635171eb1dcb40a8cc71b2c02",
		"tree/2":   "bba21dccb34d244461d71f6ccda4160d57f7dbe0cdf6fd39b914379977ef1653",
		"tree/3":   "b9ebb08b5b7afe64bbd59092a8cd96e6f9b59fd83aaa1ade82ccd42a1655b171",
		"forest/1": "5e50aeaa21ff3dc0735a59e8836d05bb0f3ded3e0d0a8a024a42299fa3476cee",
		"forest/2": "6bfc69bc40aadbdb1b63ab0ba13b3cd677d6e556e862daa8f8211cdf04cfbe9d",
		"forest/3": "6b187ce71d388a59089ca6a5ae59879ef21e6f679466dee94aae263e3b465bb1",
		"xgb/1":    "6790b7d898b3dc65cd18671cc7e387a38486e72a9eec5e6e4566a926ab6834be",
		"xgb/2":    "7557ba670737e639a2dfcf456d993a256ad039b8b0aaf7f55e3f59de6a867754",
		"xgb/3":    "1b84487c097c287e46e41762ce6913c73d04eb440f211c3a751c5b6cc0a87ab8",
	}
	families := []struct {
		name   string
		fit    func(seed uint64, p int) ml.Regressor
		decode func(d *ml.WireDec) (ml.Regressor, error)
	}{
		{"tree", func(seed uint64, p int) ml.Regressor {
			return tree.New(tree.Config{MaxFeatures: (p + 2) / 3, Rand: randx.New(seed)})
		}, func(d *ml.WireDec) (ml.Regressor, error) { return tree.DecodeWire(d) }},
		{"forest", func(seed uint64, _ int) ml.Regressor {
			return forest.New(forest.Config{NumTrees: 100, Seed: seed})
		}, func(d *ml.WireDec) (ml.Regressor, error) { return forest.DecodeWire(d) }},
		{"xgb", func(seed uint64, _ int) ml.Regressor {
			return xgb.New(xgb.Config{NumRounds: 60, MaxDepth: 3, LearningRate: 0.12,
				Subsample: 0.9, ColSample: 0.8, Seed: seed})
		}, func(d *ml.WireDec) (ml.Regressor, error) { return xgb.DecodeWire(d) }},
	}
	for _, fam := range families {
		for _, seed := range []uint64{1, 2, 3} {
			id := fmt.Sprintf("%s/%d", fam.name, seed)
			d := digestDataset(seed)
			p := d.NumFeatures()
			reg := fam.fit(seed, p)
			if err := reg.Fit(d); err != nil {
				t.Fatalf("%s: fit: %v", id, err)
			}
			if got := predictionDigest(reg, p, seed); got != want[id] {
				t.Errorf("%s: fitted digest %s, want %s", id, got, want[id])
			}
			enc := &ml.WireEnc{}
			if err := reg.(wireCodec).AppendWire(enc); err != nil {
				t.Fatalf("%s: encode: %v", id, err)
			}
			dec := ml.NewWireDec(enc.Bytes())
			loaded, err := fam.decode(dec)
			if err != nil || dec.Remaining() != 0 {
				t.Fatalf("%s: decode: %v (%d bytes unread)", id, err, dec.Remaining())
			}
			if got := predictionDigest(loaded, p, seed); got != want[id] {
				t.Errorf("%s: decoded digest %s, want %s", id, got, want[id])
			}
		}
	}
}

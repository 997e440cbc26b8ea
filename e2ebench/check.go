package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"sort"

	"repro/internal/serve"
)

// normalize removes the top-level "elapsed_ms" member from a JSON
// object, the one field of a prediction response that legitimately
// differs between two answers to the same request. Everything else,
// including any "elapsed_ms" text nested deeper or inside a string, is
// kept byte for byte.
func normalize(body []byte) []byte {
	const key = `"elapsed_ms":`
	depth, inStr, esc := 0, false, false
	for i := 0; i < len(body); i++ {
		c := body[i]
		if inStr {
			switch {
			case esc:
				esc = false
			case c == '\\':
				esc = true
			case c == '"':
				inStr = false
			}
			continue
		}
		switch c {
		case '{', '[':
			depth++
		case '}', ']':
			depth--
		case '"':
			if depth == 1 && bytes.HasPrefix(body[i:], []byte(key)) {
				return cutMember(body, i, i+len(key))
			}
			inStr = true
		}
	}
	return body
}

// cutMember drops the member whose key starts at ks and whose numeric
// value starts at vs, together with one separating comma.
func cutMember(body []byte, ks, vs int) []byte {
	ve := vs
	for ve < len(body) && bytes.IndexByte([]byte("+-.0123456789eE"), body[ve]) >= 0 {
		ve++
	}
	start, end := ks, ve
	if p := bytes.LastIndexFunc(body[:ks], func(r rune) bool { return r != ' ' }); p >= 0 && body[p] == ',' {
		start = p
	} else if end < len(body) && body[end] == ',' {
		end++
	}
	out := make([]byte, 0, len(body)-(end-start))
	out = append(out, body[:start]...)
	return append(out, body[end:]...)
}

// digest hashes (request, normalized response) pairs independently of
// the order they were collected in, so two runs of one seed agree
// whenever the program's answers do.
func digest(pairs map[string][]byte) string {
	keys := make([]string, 0, len(pairs))
	for k := range pairs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	h := sha256.New()
	var n [8]byte
	for _, k := range keys {
		for _, b := range [][]byte{[]byte(k), pairs[k]} {
			binary.LittleEndian.PutUint64(n[:], uint64(len(b)))
			h.Write(n[:])
			h.Write(b)
		}
	}
	return hex.EncodeToString(h.Sum(nil)[:16])
}

var quantileNames = []string{"p1", "p5", "p25", "p50", "p75", "p90", "p95", "p99"}

func finite(xs ...float64) bool {
	for _, x := range xs {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	return true
}

// checkSummary validates the distribution summary every prediction
// carries: ordered finite quantiles, a histogram of the requested bin
// count whose density integrates to one, finite moments and at least
// one mode.
func checkSummary(n int, q map[string]float64, h *serve.HistogramJSON, m serve.MomentsJSON, modes, bins, wantN int) error {
	if n != wantN {
		return fmt.Errorf("n = %d, want %d", n, wantN)
	}
	prev := math.Inf(-1)
	for _, name := range quantileNames {
		v, ok := q[name]
		if !ok || !finite(v) || v < prev {
			return fmt.Errorf("quantile %s = %v is missing, not finite or out of order", name, v)
		}
		prev = v
	}
	if h == nil || len(h.Density) != bins || !(h.BinWidth > 0) {
		return fmt.Errorf("histogram malformed")
	}
	mass := 0.0
	for _, d := range h.Density {
		if !finite(d) || d < 0 {
			return fmt.Errorf("histogram density %v", d)
		}
		mass += d * h.BinWidth
	}
	if math.Abs(mass-1) > 1e-6 {
		return fmt.Errorf("histogram mass %v, want 1", mass)
	}
	if !finite(m.Mean, m.Std, m.Skew, m.Kurt) || m.Std < 0 {
		return fmt.Errorf("moments not finite: %+v", m)
	}
	// A heavy-tailed sample can leave every grid point farther than the
	// exponential's range from every kernel, so zero modes is a possible
	// answer; a negative count is not.
	if modes < 0 {
		return fmt.Errorf("modes = %d", modes)
	}
	return nil
}

// checkPredict validates a single-key prediction answer against the
// request that produced it.
func checkPredict(req *serve.PredictRequest, useCase int, body []byte) error {
	var r serve.PredictResponse
	if err := json.Unmarshal(body, &r); err != nil {
		return fmt.Errorf("decode response: %w", err)
	}
	if r.UseCase != useCase || r.System != req.System || r.Source != req.Source ||
		r.Target != req.Target || r.Benchmark != req.Benchmark {
		return fmt.Errorf("response names another query: %s", body[:min(len(body), 200)])
	}
	if r.Model != canonicalModel(req.Model) || r.Representation != canonicalRep(req.Representation) {
		return fmt.Errorf("response model/representation %s/%s", r.Model, r.Representation)
	}
	if r.Measured == nil || r.KSVsMeasured == nil || r.W1VsMeasured == nil {
		return fmt.Errorf("benchmark prediction without ground-truth scores")
	}
	if ks := *r.KSVsMeasured; !(ks >= 0 && ks <= 1) || !(*r.W1VsMeasured >= 0) || !finite(*r.W1VsMeasured) {
		return fmt.Errorf("scores out of range: ks %v w1 %v", ks, *r.W1VsMeasured)
	}
	return checkSummary(r.N, r.Quantiles, r.Histogram, r.Moments, r.Modes, 50, r.Measured.N)
}

// checkBatch validates a batch answer against its request.
func checkBatch(req *serve.BatchPredictRequest, body []byte) error {
	var r serve.BatchPredictResponse
	if err := json.Unmarshal(body, &r); err != nil {
		return fmt.Errorf("decode batch response: %w", err)
	}
	if r.System != req.System || r.Model != canonicalModel(req.Model) || r.Count != len(req.Profiles) || len(r.Results) != len(req.Profiles) {
		return fmt.Errorf("batch response shape: system %s model %s count %d results %d", r.System, r.Model, r.Count, len(r.Results))
	}
	for i := range r.Results {
		x := &r.Results[i]
		if err := checkSummary(x.N, x.Quantiles, x.Histogram, x.Moments, x.Modes, 50, req.N); err != nil {
			return fmt.Errorf("result %d: %w", i, err)
		}
	}
	return nil
}

// checkIngest validates a measurement-batch answer.
func checkIngest(req *serve.MeasurementsRequest, body []byte) (*serve.MeasurementsResponse, error) {
	var r serve.MeasurementsResponse
	if err := json.Unmarshal(body, &r); err != nil {
		return nil, fmt.Errorf("decode ingest response: %w", err)
	}
	if r.System != req.System || r.Benchmark != req.Benchmark || r.Accepted+r.Quarantined != len(req.Runs) {
		return nil, fmt.Errorf("ingest response shape: %s", body)
	}
	return &r, nil
}

package gp

import (
	"math"
	"testing"

	"paws/internal/ml"
	"paws/internal/rng"
	"paws/internal/stats"
)

// TestPredictBatchMatchesPointwise asserts the batched GP prediction path
// (32-query panels) returns exactly the floats the per-point path does: 40
// two-feature rows (one short panel), then 22-feature data at batch sizes
// around the panel width, where full panels run the host's fastest kernels
// and a short last panel the Go ones.
func TestPredictBatchMatchesPointwise(t *testing.T) {
	r := rng.New(9)
	var X [][]float64
	var y []int
	for i := 0; i < 120; i++ {
		a, b := r.NormFloat64(), r.NormFloat64()
		X = append(X, []float64{a, b})
		if r.Bernoulli(stats.Logistic(2*a - b)) {
			y = append(y, 1)
		} else {
			y = append(y, 0)
		}
	}
	g := New(Config{MaxTrain: 80, Seed: 4})
	if err := g.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	var Q [][]float64
	for i := 0; i < 40; i++ {
		Q = append(Q, []float64{r.NormFloat64(), r.NormFloat64()})
	}
	Qm := ml.MatrixFromRows(Q)
	ps, vs := g.PredictWithVarianceFlat(Qm)
	for i, q := range Q {
		p, v := g.PredictWithVariance(q)
		if ps[i] != p || vs[i] != v {
			t.Fatalf("point %d: batch (%v, %v) != pointwise (%v, %v)", i, ps[i], vs[i], p, v)
		}
	}
	probs := g.PredictProbaFlat(Qm)
	for i, q := range Q {
		if probs[i] != g.PredictProba(q) {
			t.Fatalf("point %d: proba batch mismatch", i)
		}
	}

	Xw, yw := wideData(400, 22, 31)
	gw := New(Config{MaxTrain: 150, Seed: 6})
	if err := gw.Fit(Xw, yw); err != nil {
		t.Fatal(err)
	}
	Qw, _ := wideData(200, 22, 32)
	for _, m := range []int{1, 31, 32, 33, 64, 65, 200} {
		ps, vs := gw.PredictWithVarianceFlat(ml.MatrixFromRows(Qw[:m]))
		for i, q := range Qw[:m] {
			p, v := gw.PredictWithVariance(q)
			if math.Float64bits(ps[i]) != math.Float64bits(p) || math.Float64bits(vs[i]) != math.Float64bits(v) {
				t.Fatalf("22 features, m=%d, point %d: batch (%v, %v) != pointwise (%v, %v)", m, i, ps[i], vs[i], p, v)
			}
		}
	}
}

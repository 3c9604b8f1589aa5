package gp

import (
	"testing"

	"paws/internal/ml"
	"paws/internal/rng"
	"paws/internal/stats"
)

// TestPredictBatchMatchesPointwise asserts the batched GP prediction path
// (single back-substitution pass per batch) returns exactly the floats the
// per-point path does.
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
}

package bagging

import (
	"testing"

	"paws/internal/ml"
	"paws/internal/ml/gp"
	"paws/internal/ml/tree"
	"paws/internal/rng"
	"paws/internal/stats"
)

func synthBinary(n int, seed int64) (X [][]float64, y []int) {
	r := rng.New(seed)
	for i := 0; i < n; i++ {
		a, b := r.Float64(), r.Float64()
		X = append(X, []float64{a, b, r.Float64()})
		if r.Bernoulli(stats.Logistic(3*a - 3*b)) {
			y = append(y, 1)
		} else {
			y = append(y, 0)
		}
	}
	return X, y
}

// TestFitParallelMatchesSequential asserts that the worker count does not
// change a fitted ensemble's predictions: bags and member seeds are derived
// before fan-out, so Workers=4 must reproduce Workers=1 exactly.
func TestFitParallelMatchesSequential(t *testing.T) {
	X, y := synthBinary(220, 5)
	factories := map[string]ml.Factory{
		"tree": func(s int64) ml.Classifier {
			return tree.New(tree.Config{MaxDepth: 5, MinLeaf: 2, MaxFeatures: 2, Seed: s})
		},
		"gp": func(s int64) ml.Classifier {
			return gp.New(gp.Config{MaxTrain: 50, Seed: s})
		},
	}
	for name, base := range factories {
		t.Run(name, func(t *testing.T) {
			fit := func(workers int) *Ensemble {
				e := New(base, Config{Members: 6, Balanced: true, Seed: 11, Workers: workers})
				if err := e.Fit(X, y); err != nil {
					t.Fatal(err)
				}
				return e
			}
			seq, par4 := fit(1), fit(4)
			for i, x := range X[:50] {
				if a, b := seq.PredictProba(x), par4.PredictProba(x); a != b {
					t.Fatalf("point %d: sequential %v != parallel %v", i, a, b)
				}
				ap, av := seq.PredictWithVariance(x)
				bp, bv := par4.PredictWithVariance(x)
				if ap != bp || av != bv {
					t.Fatalf("point %d: variance path diverged", i)
				}
			}
		})
	}
}

// TestBatchMatchesPointwise asserts the ensemble batch predictors reproduce
// the pointwise floats bit for bit, including the intrinsic-variance path.
func TestBatchMatchesPointwise(t *testing.T) {
	X, y := synthBinary(180, 7)
	e := New(func(s int64) ml.Classifier {
		return gp.New(gp.Config{MaxTrain: 40, Seed: s})
	}, Config{Members: 4, Seed: 3, Workers: 2})
	if err := e.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	Q := X[:60]
	Qm := ml.MatrixFromRows(Q)
	probs := e.PredictProbaFlat(Qm)
	ps, vs := e.PredictWithVarianceFlat(Qm)
	for i, q := range Q {
		if probs[i] != e.PredictProba(q) {
			t.Fatalf("point %d: proba batch mismatch", i)
		}
		p, v := e.PredictWithVariance(q)
		if ps[i] != p || vs[i] != v {
			t.Fatalf("point %d: batch (%v, %v) != pointwise (%v, %v)", i, ps[i], vs[i], p, v)
		}
	}
}

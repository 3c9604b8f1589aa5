package iware

import (
	"context"
	"testing"

	"paws/internal/ml"
)

// fitWithWorkers trains one iWare-E model on the synthetic poaching data
// with the given worker count, CV weight optimization included so the
// staged (fold × threshold) fan-out is exercised.
func fitWithWorkers(t *testing.T, workers int) (*Model, [][]float64, []float64) {
	t.Helper()
	X, y, efforts := synthPoaching(320, 17)
	m, err := Fit(context.Background(), X, y, efforts, Config{
		Thresholds:  []float64{0, 1, 2, 3},
		WeakLearner: treeBagFactory(4),
		CVFolds:     3,
		Seed:        23,
		Workers:     workers,
	})
	if err != nil {
		t.Fatal(err)
	}
	return m, X, efforts
}

// TestFitParallelMatchesSequential asserts weights, per-effort predictions
// and variances are identical for Workers=1 and Workers=4.
func TestFitParallelMatchesSequential(t *testing.T) {
	seq, X, efforts := fitWithWorkers(t, 1)
	par4, _, _ := fitWithWorkers(t, 4)
	for i, w := range seq.Weights() {
		if par4.Weights()[i] != w {
			t.Fatalf("weight %d: sequential %v != parallel %v", i, w, par4.Weights()[i])
		}
	}
	for i := 0; i < 80; i++ {
		for _, c := range []float64{0, 0.7, 1.8, 3.5} {
			if a, b := seq.PredictForEffort(X[i], c), par4.PredictForEffort(X[i], c); a != b {
				t.Fatalf("point %d effort %v: %v != %v", i, c, a, b)
			}
			ap, av := seq.PredictWithVarianceForEffort(X[i], c)
			bp, bv := par4.PredictWithVarianceForEffort(X[i], c)
			if ap != bp || av != bv {
				t.Fatalf("point %d effort %v: variance path diverged", i, c)
			}
		}
	}
	_ = efforts
}

// TestVectorizedPredictionsMatchPointwise asserts the batch/vectorized
// prediction paths reproduce the pointwise floats bit for bit.
func TestVectorizedPredictionsMatchPointwise(t *testing.T) {
	m, X, efforts := fitWithWorkers(t, 2)
	Q := X[:100]
	// PredictPoints at recorded efforts.
	got := m.PredictPoints(Q, efforts[:100])
	for i := range Q {
		if want := m.PredictForEffort(Q[i], efforts[i]); got[i] != want {
			t.Fatalf("PredictPoints[%d] = %v, pointwise %v", i, got[i], want)
		}
	}
	// Uniform-effort batch primitives: every rung evaluated once over the
	// matrix, then each row's qualified prefix combined.
	rp, rv := m.PredictRungsFlat(ml.MatrixFromRows(Q), 0, m.NumRungs())
	pi, vi := make([]float64, m.NumRungs()), make([]float64, m.NumRungs())
	for _, c := range []float64{0, 1.2, 2.9} {
		for i := range Q {
			for r := range pi {
				pi[r], vi[r] = rp[r][i], rv[r][i]
			}
			p, v := m.CombineRungs(pi, vi, Q[i], c)
			wp, wv := m.PredictWithVarianceForEffort(Q[i], c)
			if p != wp || v != wv {
				t.Fatalf("effort %v point %d: batch (%v, %v) != pointwise (%v, %v)", c, i, p, v, wp, wv)
			}
		}
	}
}

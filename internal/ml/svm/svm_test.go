package svm

import (
	"math"
	"testing"

	"paws/internal/rng"
	"paws/internal/stats"
)

func linearData(n int, seed int64) ([][]float64, []int) {
	r := rng.New(seed)
	X := make([][]float64, n)
	y := make([]int, n)
	for i := range X {
		a, b := r.Normal(0, 2), r.Normal(0, 2)
		X[i] = []float64{a, b}
		// True boundary: a + 2b > 1, with 5% label noise.
		if a+2*b > 1 {
			y[i] = 1
		}
		if r.Bernoulli(0.05) {
			y[i] = 1 - y[i]
		}
	}
	return X, y
}

func TestSVMLearnsLinearBoundary(t *testing.T) {
	X, y := linearData(600, 1)
	s := New(Config{Seed: 2})
	if err := s.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	Xt, yt := linearData(300, 3)
	scores := make([]float64, len(Xt))
	for i, x := range Xt {
		scores[i] = s.PredictProba(x)
	}
	if auc := stats.AUC(yt, scores); auc < 0.9 {
		t.Fatalf("linear AUC = %v want > 0.9", auc)
	}
}

func TestSVMProbabilitiesCalibratedDirection(t *testing.T) {
	X, y := linearData(600, 4)
	s := New(Config{Seed: 5})
	if err := s.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	pHigh := s.PredictProba([]float64{3, 3})  // deep positive side
	pLow := s.PredictProba([]float64{-3, -3}) // deep negative side
	if pHigh <= pLow {
		t.Fatalf("calibration direction wrong: %v <= %v", pHigh, pLow)
	}
	if pHigh < 0.7 || pLow > 0.3 {
		t.Fatalf("calibration too flat: %v / %v", pHigh, pLow)
	}
}

func TestSVMProbaInUnitInterval(t *testing.T) {
	X, y := linearData(200, 6)
	s := New(Config{Seed: 7})
	if err := s.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	r := rng.New(8)
	for i := 0; i < 100; i++ {
		p := s.PredictProba([]float64{r.Normal(0, 5), r.Normal(0, 5)})
		if p < 0 || p > 1 || math.IsNaN(p) {
			t.Fatalf("probability %v", p)
		}
	}
}

func TestSVMClassWeightedImbalance(t *testing.T) {
	// 1:40 imbalance; class weighting should keep positive-side scores higher.
	r := rng.New(9)
	var X [][]float64
	var y []int
	for i := 0; i < 800; i++ {
		X = append(X, []float64{r.Normal(0, 1), r.Normal(0, 1)})
		y = append(y, 0)
	}
	for i := 0; i < 20; i++ {
		X = append(X, []float64{r.Normal(2.5, 0.8), r.Normal(2.5, 0.8)})
		y = append(y, 1)
	}
	s := New(Config{Seed: 10})
	if err := s.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	if s.Decision([]float64{2.5, 2.5}) <= s.Decision([]float64{0, 0}) {
		t.Fatal("decision should rank positive cluster above negative")
	}
}

func TestSVMDeterministic(t *testing.T) {
	X, y := linearData(200, 11)
	s1 := New(Config{Seed: 12})
	s2 := New(Config{Seed: 12})
	if err := s1.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	if err := s2.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if s1.PredictProba(X[i]) != s2.PredictProba(X[i]) {
			t.Fatal("same seed must give identical models")
		}
	}
}

func TestSVMErrors(t *testing.T) {
	s := New(Config{})
	if err := s.Fit(nil, nil); err == nil {
		t.Fatal("expected error on empty data")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on unfitted predict")
		}
	}()
	s.PredictProba([]float64{1})
}

func TestSVMWeightsExposed(t *testing.T) {
	X, y := linearData(300, 13)
	s := New(Config{Seed: 14})
	if err := s.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	w := s.Weights()
	if len(w) != 2 {
		t.Fatalf("weights = %v", w)
	}
	// Both features push positive (boundary a + 2b > 1).
	if w[0] <= 0 || w[1] <= 0 {
		t.Fatalf("expected positive weights, got %v", w)
	}
	if w[1] < w[0] {
		t.Fatalf("feature 2 should dominate: %v", w)
	}
}

package gp

import (
	"math"
	"testing"

	"paws/internal/rng"
	"paws/internal/stats"
)

func blobs(nNeg, nPos int, seed int64) ([][]float64, []int) {
	r := rng.New(seed)
	var X [][]float64
	var y []int
	for i := 0; i < nNeg; i++ {
		X = append(X, []float64{r.Normal(-1.5, 0.8), r.Normal(-1.5, 0.8)})
		y = append(y, 0)
	}
	for i := 0; i < nPos; i++ {
		X = append(X, []float64{r.Normal(1.5, 0.8), r.Normal(1.5, 0.8)})
		y = append(y, 1)
	}
	return X, y
}

func TestGPLearnsBlobs(t *testing.T) {
	X, y := blobs(80, 80, 1)
	g := New(Config{Seed: 2})
	if err := g.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	Xt, yt := blobs(60, 60, 3)
	scores := make([]float64, len(Xt))
	for i, x := range Xt {
		scores[i] = g.PredictProba(x)
	}
	if auc := stats.AUC(yt, scores); auc < 0.95 {
		t.Fatalf("blobs AUC = %v", auc)
	}
}

func TestGPProbabilityDirection(t *testing.T) {
	X, y := blobs(60, 60, 4)
	g := New(Config{Seed: 5})
	if err := g.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	pPos := g.PredictProba([]float64{1.5, 1.5})
	pNeg := g.PredictProba([]float64{-1.5, -1.5})
	if pPos < 0.8 || pNeg > 0.2 {
		t.Fatalf("cluster centers: pos %v neg %v", pPos, pNeg)
	}
}

func TestGPVarianceGrowsAwayFromData(t *testing.T) {
	X, y := blobs(60, 60, 6)
	g := New(Config{Seed: 7})
	if err := g.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	_, vNear := g.PredictWithVariance([]float64{1.5, 1.5})
	_, vFar := g.PredictWithVariance([]float64{25, -30})
	if vFar <= vNear {
		t.Fatalf("variance should grow away from data: near %v far %v", vNear, vFar)
	}
	// Far from data the latent variance approaches the prior signal variance.
	if vFar < 0.9*signalVar {
		t.Fatalf("far-field variance %v should approach prior %v", vFar, signalVar)
	}
}

func TestGPFarFieldPredictionNearBaseRate(t *testing.T) {
	X, y := blobs(60, 60, 8)
	g := New(Config{Seed: 9})
	if err := g.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	// With a zero-mean prior, predictions far from any data revert toward 0.5.
	p := g.PredictProba([]float64{40, 40})
	if math.Abs(p-0.5) > 0.15 {
		t.Fatalf("far-field prediction %v should revert toward 0.5", p)
	}
}

func TestGPVarianceNonNegativeEverywhere(t *testing.T) {
	X, y := blobs(40, 40, 10)
	g := New(Config{Seed: 11})
	if err := g.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	r := rng.New(12)
	for i := 0; i < 200; i++ {
		x := []float64{r.Normal(0, 10), r.Normal(0, 10)}
		p, v := g.PredictWithVariance(x)
		if v < 0 || math.IsNaN(v) {
			t.Fatalf("variance %v at %v", v, x)
		}
		if p < 0 || p > 1 || math.IsNaN(p) {
			t.Fatalf("probability %v", p)
		}
	}
}

func TestGPSubsampleKeepsPositives(t *testing.T) {
	// 500 negatives, 20 positives, cap 100: every positive must survive.
	y := make([]int, 520)
	for i := 500; i < 520; i++ {
		y[i] = 1
	}
	idx := subsample(y, 100, rng.New(13))
	if len(idx) != 100 {
		t.Fatalf("subsample size = %d want 100", len(idx))
	}
	pos := 0
	for _, i := range idx {
		if y[i] == 1 {
			pos++
		}
	}
	if pos != 20 {
		t.Fatalf("subsample kept %d of 20 positives", pos)
	}
}

func TestGPSubsampleSmallData(t *testing.T) {
	y := []int{0, 1, 0}
	idx := subsample(y, 100, rng.New(14))
	if len(idx) != 3 {
		t.Fatal("small data should be used whole")
	}
}

func TestGPMaxTrainRespected(t *testing.T) {
	X, y := blobs(300, 300, 15)
	g := New(Config{MaxTrain: 80, Seed: 16})
	if err := g.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	if g.TrainSize() != 80 {
		t.Fatalf("train size = %d want 80", g.TrainSize())
	}
}

func TestGPMedianHeuristic(t *testing.T) {
	X := [][]float64{{0, 0}, {1, 0}, {0, 1}, {1, 1}}
	ls := medianHeuristic(X)
	// Pairwise distances: 1 (×4), √2 (×2) → median ≈ 1.
	if ls < 0.5 || ls > 1.5 {
		t.Fatalf("median heuristic = %v", ls)
	}
	if medianHeuristic([][]float64{{1}}) != 1 {
		t.Fatal("single point should fall back to 1")
	}
	// Identical points: fall back to 1 rather than 0.
	if medianHeuristic([][]float64{{2, 2}, {2, 2}, {2, 2}}) != 1 {
		t.Fatal("zero median distance should fall back to 1")
	}
}

func TestGPDeterministic(t *testing.T) {
	X, y := blobs(50, 50, 17)
	g1 := New(Config{Seed: 18})
	g2 := New(Config{Seed: 18})
	if err := g1.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	if err := g2.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		p1, v1 := g1.PredictWithVariance(X[i])
		p2, v2 := g2.PredictWithVariance(X[i])
		if p1 != p2 || v1 != v2 {
			t.Fatal("same seed must give identical GPs")
		}
	}
}

func TestGPErrors(t *testing.T) {
	g := New(Config{})
	if err := g.Fit(nil, nil); err == nil {
		t.Fatal("expected error on empty data")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on unfitted predict")
		}
	}()
	g.PredictProba([]float64{1})
}

func TestGPLatentAt(t *testing.T) {
	X, y := blobs(40, 40, 19)
	g := New(Config{Seed: 20})
	if err := g.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	mPos, _ := g.LatentAt([]float64{1.5, 1.5})
	mNeg, _ := g.LatentAt([]float64{-1.5, -1.5})
	if mPos <= 0 || mNeg >= 0 {
		t.Fatalf("latent means: pos %v neg %v", mPos, mNeg)
	}
}

// TestGPUncertaintyNotCorrelatedWithPrediction is the package-level
// precursor to Fig. 7: GP variance is driven by data density, not by the
// predicted probability, so |Pearson(p, var)| should be well below the
// near-perfect correlation bagged trees exhibit.
func TestGPUncertaintyNotPerfectlyCorrelated(t *testing.T) {
	X, y := blobs(80, 80, 21)
	g := New(Config{Seed: 22})
	if err := g.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	r := rng.New(23)
	var ps, vs []float64
	for i := 0; i < 300; i++ {
		x := []float64{r.Normal(0, 3), r.Normal(0, 3)}
		p, v := g.PredictWithVariance(x)
		ps = append(ps, p)
		vs = append(vs, v)
	}
	if c := math.Abs(stats.Pearson(ps, vs)); c > 0.9 {
		t.Fatalf("GP prediction-variance correlation %v suspiciously high", c)
	}
}

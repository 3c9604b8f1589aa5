package bagging

import (
	"math"
	"testing"

	"paws/internal/ml"
	"paws/internal/ml/tree"
	"paws/internal/rng"
	"paws/internal/stats"
)

func treeFactory(maxDepth int) ml.Factory {
	return func(seed int64) ml.Classifier {
		return tree.New(tree.Config{MaxDepth: maxDepth, MinLeaf: 2, Seed: seed})
	}
}

// blobs builds two Gaussian clusters with the given counts.
func blobs(nNeg, nPos int, seed int64) ([][]float64, []int) {
	r := rng.New(seed)
	var X [][]float64
	var y []int
	for i := 0; i < nNeg; i++ {
		X = append(X, []float64{r.Normal(0, 1), r.Normal(0, 1)})
		y = append(y, 0)
	}
	for i := 0; i < nPos; i++ {
		X = append(X, []float64{r.Normal(3, 1), r.Normal(3, 1)})
		y = append(y, 1)
	}
	return X, y
}

func TestEnsembleLearnsBlobs(t *testing.T) {
	X, y := blobs(200, 200, 1)
	e := New(treeFactory(5), Config{Members: 15, Seed: 2})
	if err := e.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	Xt, yt := blobs(100, 100, 3)
	scores := make([]float64, len(Xt))
	for i, x := range Xt {
		scores[i] = e.PredictProba(x)
	}
	if auc := stats.AUC(yt, scores); auc < 0.95 {
		t.Fatalf("blobs AUC = %v", auc)
	}
}

func TestBalancedBaggingBeatsPlainUnderImbalance(t *testing.T) {
	// 1:60 imbalance with overlapping clusters.
	r := rng.New(4)
	var X [][]float64
	var y []int
	for i := 0; i < 1200; i++ {
		X = append(X, []float64{r.Normal(0, 1.5), r.Normal(0, 1.5)})
		y = append(y, 0)
	}
	for i := 0; i < 20; i++ {
		X = append(X, []float64{r.Normal(2, 1), r.Normal(2, 1)})
		y = append(y, 1)
	}
	var Xt [][]float64
	var yt []int
	for i := 0; i < 300; i++ {
		Xt = append(Xt, []float64{r.Normal(0, 1.5), r.Normal(0, 1.5)})
		yt = append(yt, 0)
	}
	for i := 0; i < 30; i++ {
		Xt = append(Xt, []float64{r.Normal(2, 1), r.Normal(2, 1)})
		yt = append(yt, 1)
	}
	aucOf := func(balanced bool) float64 {
		e := New(treeFactory(4), Config{Members: 20, Balanced: balanced, Seed: 5})
		if err := e.Fit(X, y); err != nil {
			t.Fatal(err)
		}
		scores := make([]float64, len(Xt))
		for i, x := range Xt {
			scores[i] = e.PredictProba(x)
		}
		return stats.AUC(yt, scores)
	}
	plain, balanced := aucOf(false), aucOf(true)
	// Balanced bagging should not be dramatically worse, and each bag must
	// be usable. (On average it is better; we assert non-collapse.)
	if balanced < 0.6 {
		t.Fatalf("balanced bagging collapsed: AUC %v (plain %v)", balanced, plain)
	}
}

func TestBalancedBagsAreBalanced(t *testing.T) {
	X, y := blobs(500, 10, 6)
	e := New(treeFactory(3), Config{Members: 5, Balanced: true, Seed: 7})
	if err := e.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	for b, counts := range e.inBag {
		var neg, pos int
		for i, c := range counts {
			if c == 0 {
				continue
			}
			if y[i] == 1 {
				pos += int(c)
			} else {
				neg += int(c)
			}
		}
		if pos == 0 || neg == 0 {
			t.Fatalf("bag %d is single-class (%d/%d)", b, neg, pos)
		}
		ratio := float64(pos) / float64(neg)
		if ratio < 0.5 || ratio > 2 {
			t.Fatalf("bag %d unbalanced: %d pos vs %d neg", b, pos, neg)
		}
	}
}

func TestPredictWithVarianceBetweenMembers(t *testing.T) {
	X, y := blobs(100, 100, 8)
	e := New(treeFactory(6), Config{Members: 12, Seed: 9})
	if err := e.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	p, v := e.PredictWithVariance([]float64{1.5, 1.5})
	if p < 0 || p > 1 {
		t.Fatalf("p = %v", p)
	}
	if v < 0 {
		t.Fatalf("variance = %v", v)
	}
	// Deep in the negative cluster, members agree → near-zero variance.
	_, vSure := e.PredictWithVariance([]float64{-1, -1})
	if vSure > v+1e-9 && v > 0.01 {
		t.Logf("boundary var %v, interior var %v", v, vSure)
	}
}

func TestJackknifeVarianceNonNegative(t *testing.T) {
	X, y := blobs(80, 80, 10)
	e := New(treeFactory(5), Config{Members: 25, Seed: 11})
	if err := e.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	for _, x := range [][]float64{{0, 0}, {3, 3}, {1.5, 1.5}, {-2, 5}} {
		if v := e.JackknifeVariance(x); v < 0 || math.IsNaN(v) {
			t.Fatalf("jackknife variance = %v", v)
		}
	}
}

func TestEnsembleDeterministic(t *testing.T) {
	X, y := blobs(100, 100, 15)
	e1 := New(treeFactory(4), Config{Members: 8, Seed: 16})
	e2 := New(treeFactory(4), Config{Members: 8, Seed: 16})
	if err := e1.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	if err := e2.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if e1.PredictProba(X[i]) != e2.PredictProba(X[i]) {
			t.Fatal("same seed must give identical ensembles")
		}
	}
}

func TestEnsembleErrors(t *testing.T) {
	e := New(treeFactory(3), Config{Members: 2})
	if err := e.Fit(nil, nil); err == nil {
		t.Fatal("expected error on empty data")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on unfitted predict")
		}
	}()
	e.PredictProba([]float64{1})
}

func TestMemberPredictions(t *testing.T) {
	X, y := blobs(60, 60, 17)
	e := New(treeFactory(4), Config{Members: 6, Seed: 18})
	if err := e.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	preds := e.MemberPredictions(X[0])
	if len(preds) != 6 {
		t.Fatalf("member predictions = %d want 6", len(preds))
	}
	var mean float64
	for _, p := range preds {
		mean += p
	}
	mean /= 6
	if math.Abs(mean-e.PredictProba(X[0])) > 1e-12 {
		t.Fatal("PredictProba must equal mean of member predictions")
	}
}

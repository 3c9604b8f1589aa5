package iware

import (
	"context"
	"math"
	"testing"

	"paws/internal/ml"
	"paws/internal/ml/bagging"
	"paws/internal/ml/tree"
	"paws/internal/rng"
	"paws/internal/stats"
)

func treeBagFactory(members int) func(int64) *bagging.Ensemble {
	return func(seed int64) *bagging.Ensemble {
		return bagging.New(func(s int64) ml.Classifier {
			return tree.New(tree.Config{MaxDepth: 5, MinLeaf: 2, MaxFeatures: 0, Seed: s})
		}, bagging.Config{Members: members, Seed: seed})
	}
}

// synthPoaching builds data mimicking the poaching structure: the true
// attack depends on two features; detection (label=1) requires an attack AND
// sufficient effort, so low-effort negatives are unreliable.
func synthPoaching(n int, seed int64) (X [][]float64, y []int, efforts []float64) {
	r := rng.New(seed)
	for i := 0; i < n; i++ {
		a, b := r.Float64(), r.Float64()
		x := []float64{a, b, r.Float64()}
		attack := r.Bernoulli(stats.Logistic(4*a - 2*b - 1))
		effort := 0.2 + 4*r.Float64()
		label := 0
		if attack && r.Bernoulli(1-math.Exp(-0.8*effort)) {
			label = 1
		}
		X = append(X, x)
		y = append(y, label)
		efforts = append(efforts, effort)
	}
	return X, y, efforts
}

func TestFilterIndicesKeepsAllPositives(t *testing.T) {
	y := []int{1, 0, 1, 0, 0}
	eff := []float64{0.1, 0.1, 5, 5, 2}
	idx := filterIndices(y, eff, 3.0)
	// Positives at 0, 2 always kept; negatives only where effort > 3 → index 3.
	want := map[int32]bool{0: true, 2: true, 3: true}
	if len(idx) != 3 {
		t.Fatalf("filter = %v", idx)
	}
	for _, i := range idx {
		if !want[i] {
			t.Fatalf("unexpected index %d", i)
		}
	}
	// Threshold 0 keeps every positive and all positive-effort negatives.
	if got := filterIndices(y, eff, 0); len(got) != 5 {
		t.Fatalf("θ=0 should keep all, got %v", got)
	}
}

func TestFitAndPredictBasic(t *testing.T) {
	X, y, eff := synthPoaching(600, 1)
	m, err := Fit(context.Background(), X, y, eff, Config{
		Thresholds:  []float64{0, 1, 2, 3},
		WeakLearner: treeBagFactory(8),
		Seed:        2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Classifiers()) != 4 {
		t.Fatal("one classifier per threshold")
	}
	// Test AUC must beat chance comfortably.
	Xt, yt, efft := synthPoaching(400, 3)
	scores := m.PredictPoints(Xt, efft)
	if auc := stats.AUC(yt, scores); auc < 0.6 {
		t.Fatalf("iWare-E AUC = %v", auc)
	}
}

func TestPredictionMonotoneStepInEffort(t *testing.T) {
	X, y, eff := synthPoaching(500, 4)
	m, err := Fit(context.Background(), X, y, eff, Config{
		Thresholds:  []float64{0, 1, 2, 3},
		WeakLearner: treeBagFactory(6),
		Seed:        5,
	})
	if err != nil {
		t.Fatal(err)
	}
	// g(c) is a step function: constant between thresholds.
	x := X[0]
	p1 := m.PredictForEffort(x, 1.2)
	p2 := m.PredictForEffort(x, 1.8)
	if p1 != p2 {
		t.Fatal("prediction should be constant between thresholds")
	}
	// On average over many cells, higher effort ⇒ higher predicted detection
	// (more qualified classifiers trained on higher-positive-rate data).
	var lo, hi float64
	for i := 0; i < 200; i++ {
		lo += m.PredictForEffort(X[i], 0.1)
		hi += m.PredictForEffort(X[i], 5)
	}
	if hi <= lo {
		t.Fatalf("mean prediction should increase with effort: lo %v hi %v", lo/200, hi/200)
	}
}

func TestQualificationBoundaries(t *testing.T) {
	X, y, eff := synthPoaching(300, 6)
	m, err := Fit(context.Background(), X, y, eff, Config{
		Thresholds:  []float64{0, 1, 2},
		WeakLearner: treeBagFactory(4),
		Seed:        7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if n := m.QualifiedRungs(0); n != 1 {
		t.Fatalf("at c=0 only θ=0 qualifies, got %d", n)
	}
	if n := m.QualifiedRungs(1); n != 2 {
		t.Fatalf("at c=1, θ∈{0,1} qualify, got %d", n)
	}
	if n := m.QualifiedRungs(0.99); n != 1 {
		t.Fatalf("at c=0.99 only θ=0 qualifies, got %d", n)
	}
	if n := m.QualifiedRungs(100); n != 3 {
		t.Fatalf("large effort qualifies all, got %d", n)
	}
	// Negative effort still has one qualified classifier (defined behavior).
	if n := m.QualifiedRungs(-1); n != 1 {
		t.Fatalf("negative effort should clamp to 1, got %d", n)
	}
}

// logLoss is the mean negative log-likelihood of binary labels under
// predicted probabilities, each clipped to [1e-12, 1−1e-12].
func logLoss(labels []int, probs []float64) float64 {
	const eps = 1e-12
	var s float64
	for i, y := range labels {
		p := math.Min(1-eps, math.Max(eps, probs[i]))
		if y == 1 {
			s -= math.Log(p)
		} else {
			s -= math.Log(1 - p)
		}
	}
	return s / float64(len(labels))
}

func TestWeightOptimizationImprovesLogLoss(t *testing.T) {
	X, y, eff := synthPoaching(700, 8)
	Xt, yt, efft := synthPoaching(500, 9)

	base, err := Fit(context.Background(), X, y, eff, Config{
		Thresholds:  []float64{0, 0.8, 1.6, 2.4, 3.2},
		WeakLearner: treeBagFactory(6),
		Seed:        10,
	})
	if err != nil {
		t.Fatal(err)
	}
	opt, err := Fit(context.Background(), X, y, eff, Config{
		Thresholds:  []float64{0, 0.8, 1.6, 2.4, 3.2},
		WeakLearner: treeBagFactory(6),
		CVFolds:     3,
		Seed:        10,
	})
	if err != nil {
		t.Fatal(err)
	}
	llBase := logLoss(yt, base.PredictPoints(Xt, efft))
	llOpt := logLoss(yt, opt.PredictPoints(Xt, efft))
	// Optimized weights should not be much worse; usually better.
	if llOpt > llBase*1.15 {
		t.Fatalf("optimized weights hurt log loss: %v vs %v", llOpt, llBase)
	}
	// Weights must remain a simplex point.
	var sum float64
	for _, w := range opt.Weights() {
		if w < 0 {
			t.Fatalf("negative weight %v", w)
		}
		sum += w
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("weights sum to %v", sum)
	}
}

func TestUniformWeightsWithoutCV(t *testing.T) {
	X, y, eff := synthPoaching(200, 11)
	m, err := Fit(context.Background(), X, y, eff, Config{
		Thresholds:  []float64{0, 1},
		WeakLearner: treeBagFactory(3),
		Seed:        12,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range m.Weights() {
		if w != 0.5 {
			t.Fatalf("expected uniform weights, got %v", m.Weights())
		}
	}
}

func TestPredictWithVarianceAggregation(t *testing.T) {
	X, y, eff := synthPoaching(400, 13)
	m, err := Fit(context.Background(), X, y, eff, Config{
		Thresholds:  []float64{0, 1, 2},
		WeakLearner: treeBagFactory(6),
		Seed:        14,
	})
	if err != nil {
		t.Fatal(err)
	}
	p, v := m.PredictWithVarianceForEffort(X[0], 1.5)
	if p < 0 || p > 1 {
		t.Fatalf("p = %v", p)
	}
	if v < 0 {
		t.Fatalf("variance = %v", v)
	}
	// Probability must agree with PredictForEffort.
	if math.Abs(p-m.PredictForEffort(X[0], 1.5)) > 1e-12 {
		t.Fatal("variance path changed the probability")
	}
}

func TestFitErrors(t *testing.T) {
	X, y, eff := synthPoaching(50, 15)
	if _, err := Fit(context.Background(), X, y, eff, Config{WeakLearner: treeBagFactory(2)}); err != ErrNoThresholds {
		t.Fatalf("expected ErrNoThresholds, got %v", err)
	}
	if _, err := Fit(context.Background(), X, y, eff, Config{Thresholds: []float64{0}}); err == nil {
		t.Fatal("expected nil-factory error")
	}
	if _, err := Fit(context.Background(), X, y, eff[:10], Config{Thresholds: []float64{0}, WeakLearner: treeBagFactory(2)}); err == nil {
		t.Fatal("expected effort-length error")
	}
	if _, err := Fit(context.Background(), nil, nil, nil, Config{Thresholds: []float64{0}, WeakLearner: treeBagFactory(2)}); err == nil {
		t.Fatal("expected empty-data error")
	}
}

func TestThresholdsSortedInternally(t *testing.T) {
	X, y, eff := synthPoaching(200, 16)
	m, err := Fit(context.Background(), X, y, eff, Config{
		Thresholds:  []float64{2, 0, 1},
		WeakLearner: treeBagFactory(3),
		Seed:        17,
	})
	if err != nil {
		t.Fatal(err)
	}
	th := m.Thresholds()
	for i := 1; i < len(th); i++ {
		if th[i] < th[i-1] {
			t.Fatalf("thresholds not sorted: %v", th)
		}
	}
}

func TestSquashVariance(t *testing.T) {
	if SquashVariance(0, 1) != 0 {
		t.Fatal("squash(0) must be 0")
	}
	if SquashVariance(-1, 1) != 0 {
		t.Fatal("squash of negative variance must be 0")
	}
	prev := 0.0
	for v := 0.1; v < 10; v += 0.1 {
		s := SquashVariance(v, 1)
		if s <= prev || s >= 1 {
			t.Fatalf("squash not monotone into (0,1): squash(%v)=%v", v, s)
		}
		prev = s
	}
	// Zero scale falls back to 1.
	if SquashVariance(1, 0) != SquashVariance(1, 1) {
		t.Fatal("scale fallback wrong")
	}
}

// TestIWareEBeatsPlainBaggingOnBiasedNegatives is the package-level analogue
// of Table II's finding that iWare-E lifts AUC: with unreliable low-effort
// negatives, filtering should help the ranking measured against TRUE attack
// labels.
func TestIWareEBeatsPlainBaggingOnBiasedNegatives(t *testing.T) {
	r := rng.New(18)
	var X [][]float64
	var y []int
	var eff []float64
	var trueAttack []int
	n := 900
	for i := 0; i < n; i++ {
		a, b := r.Float64(), r.Float64()
		x := []float64{a, b}
		attack := r.Bernoulli(stats.Logistic(5*a - 3*b - 0.5))
		effort := 0.2 + 4*r.Float64()
		label := 0
		if attack && r.Bernoulli(1-math.Exp(-0.6*effort)) {
			label = 1
		}
		ta := 0
		if attack {
			ta = 1
		}
		X = append(X, x)
		y = append(y, label)
		eff = append(eff, effort)
		trueAttack = append(trueAttack, ta)
	}
	split := 600
	m, err := Fit(context.Background(), X[:split], y[:split], eff[:split], Config{
		Thresholds:  []float64{0, 1, 2, 3},
		WeakLearner: treeBagFactory(8),
		Seed:        19,
	})
	if err != nil {
		t.Fatal(err)
	}
	plain := treeBagFactory(8)(20)
	if err := plain.Fit(X[:split], y[:split]); err != nil {
		t.Fatal(err)
	}
	// Evaluate against the TRUE attack labels at high effort.
	var iwScores, plainScores []float64
	for i := split; i < n; i++ {
		iwScores = append(iwScores, m.PredictForEffort(X[i], 4))
		plainScores = append(plainScores, plain.PredictProba(X[i]))
	}
	iwAUC := stats.AUC(trueAttack[split:], iwScores)
	plainAUC := stats.AUC(trueAttack[split:], plainScores)
	if iwAUC < plainAUC-0.05 {
		t.Fatalf("iWare-E (%v) should not trail plain bagging (%v) by much", iwAUC, plainAUC)
	}
}

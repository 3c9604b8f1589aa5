package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestAUCPerfectRanking(t *testing.T) {
	labels := []int{0, 0, 1, 1}
	scores := []float64{0.1, 0.2, 0.8, 0.9}
	if got := AUC(labels, scores); got != 1 {
		t.Fatalf("AUC = %v want 1", got)
	}
}

func TestAUCWorstRanking(t *testing.T) {
	labels := []int{1, 1, 0, 0}
	scores := []float64{0.1, 0.2, 0.8, 0.9}
	if got := AUC(labels, scores); got != 0 {
		t.Fatalf("AUC = %v want 0", got)
	}
}

func TestAUCTiesGiveHalf(t *testing.T) {
	labels := []int{0, 1, 0, 1}
	scores := []float64{0.5, 0.5, 0.5, 0.5}
	if got := AUC(labels, scores); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("AUC = %v want 0.5", got)
	}
}

func TestAUCDegenerateClasses(t *testing.T) {
	if got := AUC([]int{1, 1}, []float64{0.1, 0.9}); got != 0.5 {
		t.Fatalf("AUC with no negatives = %v want 0.5", got)
	}
	if got := AUC([]int{0, 0}, []float64{0.1, 0.9}); got != 0.5 {
		t.Fatalf("AUC with no positives = %v want 0.5", got)
	}
}

func TestAUCKnownValue(t *testing.T) {
	// 1 positive ranked above 1 of 2 negatives: AUC = 0.5*(1 + 0)? Compute by
	// hand: pairs (pos, neg): (0.6 vs 0.4)=win, (0.6 vs 0.8)=loss → 0.5.
	labels := []int{0, 1, 0}
	scores := []float64{0.4, 0.6, 0.8}
	if got := AUC(labels, scores); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("AUC = %v want 0.5", got)
	}
}

func TestAUCInvariantToMonotoneTransform(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 5 + r.Intn(50)
		labels := make([]int, n)
		scores := make([]float64, n)
		for i := range labels {
			labels[i] = r.Intn(2)
			scores[i] = r.Float64()
		}
		a1 := AUC(labels, scores)
		// Strictly monotone transform must not change AUC.
		tr := make([]float64, n)
		for i, s := range scores {
			tr[i] = math.Exp(3*s) + 2
		}
		a2 := AUC(labels, tr)
		return math.Abs(a1-a2) < 1e-12 && a1 >= 0 && a1 <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestPearson(t *testing.T) {
	x := []float64{1, 2, 3, 4}
	y := []float64{2, 4, 6, 8}
	if got := Pearson(x, y); math.Abs(got-1) > 1e-12 {
		t.Fatalf("Pearson = %v want 1", got)
	}
	yNeg := []float64{8, 6, 4, 2}
	if got := Pearson(x, yNeg); math.Abs(got+1) > 1e-12 {
		t.Fatalf("Pearson = %v want -1", got)
	}
	if got := Pearson(x, []float64{5, 5, 5, 5}); got != 0 {
		t.Fatalf("Pearson with constant = %v want 0", got)
	}
}

func TestPearsonBounded(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(30)
		x := make([]float64, n)
		y := make([]float64, n)
		for i := range x {
			x[i] = r.NormFloat64()
			y[i] = r.NormFloat64()
		}
		p := Pearson(x, y)
		return p >= -1-1e-12 && p <= 1+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestMean(t *testing.T) {
	v := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if Mean(v) != 5 {
		t.Fatalf("Mean = %v", Mean(v))
	}
	if Mean(nil) != 0 {
		t.Fatal("the mean of no values should be 0")
	}
}

func TestPercentile(t *testing.T) {
	v := []float64{3, 1, 2, 4}
	if got := Percentile(v, 0); got != 1 {
		t.Fatalf("P0 = %v", got)
	}
	if got := Percentile(v, 100); got != 4 {
		t.Fatalf("P100 = %v", got)
	}
	if got := Percentile(v, 50); math.Abs(got-2.5) > 1e-12 {
		t.Fatalf("P50 = %v want 2.5", got)
	}
	// Input must not be modified.
	if v[0] != 3 {
		t.Fatal("Percentile modified its input")
	}
	if Percentile(nil, 50) != 0 {
		t.Fatal("empty percentile should be 0")
	}
}

func TestPercentileMonotone(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(40)
		v := make([]float64, n)
		for i := range v {
			v[i] = r.NormFloat64()
		}
		prev := math.Inf(-1)
		for p := 0.0; p <= 100; p += 5 {
			q := Percentile(v, p)
			if q < prev-1e-12 {
				return false
			}
			prev = q
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestLogisticLogitRoundTrip(t *testing.T) {
	for _, x := range []float64{-5, -1, 0, 0.3, 2, 8} {
		p := Logistic(x)
		if p <= 0 || p >= 1 {
			t.Fatalf("Logistic(%v) = %v out of (0,1)", x, p)
		}
		if logit := math.Log(p / (1 - p)); math.Abs(logit-x) > 1e-9 {
			t.Fatalf("logit(Logistic(%v)) = %v", x, logit)
		}
	}
	if Logistic(0) != 0.5 {
		t.Fatal("Logistic(0) != 0.5")
	}
}

func TestClamp(t *testing.T) {
	if Clamp(5, 0, 1) != 1 || Clamp(-5, 0, 1) != 0 || Clamp(0.5, 0, 1) != 0.5 {
		t.Fatal("Clamp wrong")
	}
}

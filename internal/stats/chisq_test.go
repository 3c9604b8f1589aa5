package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestChiSquaredIndependentTable(t *testing.T) {
	// Perfectly proportional table → X² = 0, p = 1.
	table := [][]float64{{10, 20}, {20, 40}}
	res, err := ChiSquaredTest(table)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Statistic) > 1e-10 {
		t.Fatalf("X² = %v want 0", res.Statistic)
	}
	if math.Abs(res.PValue-1) > 1e-10 {
		t.Fatalf("p = %v want 1", res.PValue)
	}
	if res.DF != 1 {
		t.Fatalf("df = %d want 1", res.DF)
	}
}

func TestChiSquaredKnownValue(t *testing.T) {
	// Classic 2×2: [[10, 20], [30, 5]].
	// Row sums 30, 35; col sums 40, 25; total 65.
	table := [][]float64{{10, 20}, {30, 5}}
	res, err := ChiSquaredTest(table)
	if err != nil {
		t.Fatal(err)
	}
	// Expected counts: 18.4615, 11.5385, 21.5385, 13.4615.
	want := math.Pow(10-18.461538, 2)/18.461538 +
		math.Pow(20-11.538462, 2)/11.538462 +
		math.Pow(30-21.538462, 2)/21.538462 +
		math.Pow(5-13.461538, 2)/13.461538
	if math.Abs(res.Statistic-want) > 1e-4 {
		t.Fatalf("X² = %v want %v", res.Statistic, want)
	}
	if res.PValue > 1e-3 {
		t.Fatalf("p = %v, expected highly significant", res.PValue)
	}
}

func TestChiSquaredDegenerate(t *testing.T) {
	if _, err := ChiSquaredTest([][]float64{{0, 0}, {1, 2}}); err == nil {
		t.Fatal("expected error on zero row")
	}
	if _, err := ChiSquaredTest([][]float64{{0, 1}, {0, 2}}); err == nil {
		t.Fatal("expected error on zero column")
	}
	if _, err := ChiSquaredTest(nil); err == nil {
		t.Fatal("expected error on empty table")
	}
	if _, err := ChiSquaredTest([][]float64{{1, 2}, {3}}); err == nil {
		t.Fatal("expected error on ragged table")
	}
}

func TestChiSquaredSFKnownValues(t *testing.T) {
	// Chi-squared with 1 df: P(X > 3.841) ≈ 0.05.
	if p := ChiSquaredSF(3.841, 1); math.Abs(p-0.05) > 1e-3 {
		t.Fatalf("SF(3.841, 1) = %v want ~0.05", p)
	}
	// 2 df: SF(x) = exp(-x/2) exactly.
	for _, x := range []float64{0.5, 1, 2, 5, 10} {
		want := math.Exp(-x / 2)
		if p := ChiSquaredSF(x, 2); math.Abs(p-want) > 1e-10 {
			t.Fatalf("SF(%v, 2) = %v want %v", x, p, want)
		}
	}
	if ChiSquaredSF(-1, 3) != 1 {
		t.Fatal("SF of negative x should be 1")
	}
}

// TestGammaPQComplement holds GammaQ's two evaluators to each other: the
// power series for P and the continued fraction for Q must sum to one
// where both converge (x from a/2 to 2a+2, around the x = a+1 switch), so
// Q cannot jump where GammaQ changes branch. GammaQ stays in [0, 1].
func TestGammaPQComplement(t *testing.T) {
	f := func(a, x, u float64) bool {
		a = 0.5 + math.Mod(math.Abs(a), 10)
		x = math.Mod(math.Abs(x), 20)
		q := GammaQ(a, x)
		near := a/2 + math.Mod(math.Abs(u), 1)*(1.5*a+2)
		sum := gammaPSeries(a, near) + gammaQContinued(a, near)
		return math.Abs(sum-1) < 1e-10 && q >= -1e-12 && q <= 1+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestGammaQKnown(t *testing.T) {
	// Q(1, x) = exp(-x).
	for _, x := range []float64{0.1, 1, 2, 5} {
		want := math.Exp(-x)
		if got := GammaQ(1, x); math.Abs(got-want) > 1e-10 {
			t.Fatalf("GammaQ(1,%v) = %v want %v", x, got, want)
		}
	}
	if GammaQ(1, 0) != 1 {
		t.Fatal("GammaQ(a, 0) should be 1")
	}
	if !math.IsNaN(GammaQ(-1, 1)) {
		t.Fatal("GammaQ with a<=0 should be NaN")
	}
}

func TestChiSquaredPValueInUnitInterval(t *testing.T) {
	f := func(a, b, c, d uint8) bool {
		table := [][]float64{{float64(a%50) + 1, float64(b%50) + 1}, {float64(c%50) + 1, float64(d%50) + 1}}
		res, err := ChiSquaredTest(table)
		if err != nil {
			return false
		}
		return res.PValue >= 0 && res.PValue <= 1 && res.Statistic >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

package mat

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// randomSPD builds a random symmetric positive definite matrix A = BᵀB + nI.
func randomSPD(r *rand.Rand, n int) *Dense {
	b := NewDense(n, n)
	for i := range b.data {
		b.data[i] = r.NormFloat64()
	}
	a := mul(transpose(b), b)
	for i := 0; i < n; i++ {
		a.Set(i, i, a.At(i, i)+float64(n))
	}
	return a
}

func TestCholeskyReconstruct(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(8)
		a := randomSPD(r, n)
		ch, err := NewCholesky(a)
		if err != nil {
			return false
		}
		rec := mul(ch.L(), transpose(ch.L()))
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if math.Abs(rec.At(i, j)-a.At(i, j)) > 1e-8*(1+math.Abs(a.At(i, j))) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestCholeskySolve(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		n := 1 + r.Intn(10)
		a := randomSPD(r, n)
		xTrue := make([]float64, n)
		for i := range xTrue {
			xTrue[i] = r.NormFloat64()
		}
		b := a.MulVec(xTrue)
		ch, err := NewCholesky(a)
		if err != nil {
			t.Fatalf("factorization failed: %v", err)
		}
		x := ch.SolveVec(b)
		for i := range x {
			if math.Abs(x[i]-xTrue[i]) > 1e-7 {
				t.Fatalf("solve error: got %v want %v", x[i], xTrue[i])
			}
		}
	}
}

func TestCholeskyNotPD(t *testing.T) {
	a := denseOf(2, 2, []float64{1, 2, 2, 1}) // eigenvalues 3, -1
	if _, err := NewCholesky(a); err != ErrNotPositiveDefinite {
		t.Fatalf("expected ErrNotPositiveDefinite, got %v", err)
	}
}

func TestCholeskyJitterRecovers(t *testing.T) {
	// Singular (rank-1) matrix: plain Cholesky fails, jitter succeeds.
	a := denseOf(2, 2, []float64{1, 1, 1, 1})
	if _, err := NewCholesky(a); err == nil {
		t.Fatal("expected plain Cholesky to fail on singular matrix")
	}
	ch, err := NewCholeskyJitter(a, 1e-8, 12)
	if err != nil {
		t.Fatalf("jittered Cholesky failed: %v", err)
	}
	if r, c := ch.L().Dims(); r != 2 || c != 2 {
		t.Fatalf("factor is %d×%d, want 2×2", r, c)
	}
}

func TestSolveLowerForwardBackward(t *testing.T) {
	a := denseOf(2, 2, []float64{4, 2, 2, 3})
	ch, err := NewCholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	b := []float64{1, 2}
	y := ch.SolveLower(b)
	x := ch.SolveLowerT(y)
	// Verify A·x = b.
	r := a.MulVec(x)
	for i := range b {
		if math.Abs(r[i]-b[i]) > 1e-10 {
			t.Fatalf("residual %v", r)
		}
	}
}

package mat

import (
	"math"
	"testing"

	"paws/internal/rng"
)

// TestSolveLowerBatchMatchesSolveLower asserts the batched (flat multi-RHS)
// forward substitution, SolveLowerFlat, is bit-identical to the
// one-RHS-at-a-time path, for RHS counts that exercise the four-way unroll,
// its tail, both, and neither.
func TestSolveLowerBatchMatchesSolveLower(t *testing.T) {
	r := rng.New(3)
	for _, n := range []int{1, 2, 17, 121} {
		// Random SPD matrix A = MᵀM + n·I.
		m := NewDense(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				m.Set(i, j, r.NormFloat64())
			}
		}
		a := mul(transpose(m), m)
		for i := 0; i < n; i++ {
			a.Set(i, i, a.At(i, i)+float64(n))
		}
		ch, err := NewCholesky(a)
		if err != nil {
			t.Fatal(err)
		}
		for _, nrhs := range []int{1, 3, 4, 5, 9} {
			B := make([]float64, nrhs*n)
			for i := range B {
				B[i] = r.NormFloat64()
			}
			want := make([][]float64, nrhs)
			for k := range want {
				want[k] = ch.SolveLower(B[k*n : (k+1)*n])
			}
			ch.SolveLowerFlat(B, nrhs)
			for k := range want {
				for i, w := range want[k] {
					if got := B[k*n+i]; math.Float64bits(got) != math.Float64bits(w) {
						t.Fatalf("n=%d nrhs=%d rhs %d component %d: flat %v != pointwise %v", n, nrhs, k, i, got, w)
					}
				}
			}
		}
	}
}

// TestSolveLowerBatchEmpty asserts an empty batch (nrhs = 0, nil or empty
// buffer) is accepted and solves nothing, and that a buffer whose length
// does not match nrhs·n is rejected.
func TestSolveLowerBatchEmpty(t *testing.T) {
	a := NewDense(2, 2)
	a.Set(0, 0, 4)
	a.Set(1, 1, 9)
	ch, err := NewCholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	ch.SolveLowerFlat(nil, 0)
	ch.SolveLowerFlat([]float64{}, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("SolveLowerFlat accepted a 2-long buffer for nrhs = 0")
		}
	}()
	ch.SolveLowerFlat([]float64{1, 2}, 0)
}

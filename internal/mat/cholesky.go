package mat

import (
	"errors"
	"fmt"
	"math"
)

// ErrNotPositiveDefinite is returned when Cholesky factorization encounters a
// non-positive pivot. Callers typically retry with added jitter.
var ErrNotPositiveDefinite = errors.New("mat: matrix is not positive definite")

// Cholesky holds the lower-triangular factor L of a symmetric positive
// definite matrix A = L·Lᵀ.
type Cholesky struct {
	n int
	l *Dense // lower triangular, upper part zero
}

// NewCholesky factorizes the symmetric matrix a (only the lower triangle is
// read). It returns ErrNotPositiveDefinite if a pivot is ≤ 0.
func NewCholesky(a *Dense) (*Cholesky, error) {
	r, c := a.Dims()
	if r != c {
		panic(fmt.Sprintf("mat: Cholesky of non-square %d×%d", r, c))
	}
	l := NewDense(r, r)
	for j := 0; j < r; j++ {
		d := a.At(j, j)
		lrowj := l.Row(j)
		for k := 0; k < j; k++ {
			d -= lrowj[k] * lrowj[k]
		}
		if d <= 0 || math.IsNaN(d) {
			return nil, ErrNotPositiveDefinite
		}
		d = math.Sqrt(d)
		l.Set(j, j, d)
		inv := 1 / d
		for i := j + 1; i < r; i++ {
			s := a.At(i, j)
			lrowi := l.Row(i)
			for k := 0; k < j; k++ {
				s -= lrowi[k] * lrowj[k]
			}
			l.Set(i, j, s*inv)
		}
	}
	return &Cholesky{n: r, l: l}, nil
}

// NewCholeskyJitter factorizes a, adding progressively larger diagonal jitter
// (starting at jitter0, growing ×10) until the factorization succeeds or
// maxTries is exhausted. The matrix a is not modified.
func NewCholeskyJitter(a *Dense, jitter0 float64, maxTries int) (*Cholesky, error) {
	work := a.Clone()
	jit := 0.0
	next := jitter0
	for try := 0; try < maxTries; try++ {
		if jit > 0 {
			for i := 0; i < work.rows; i++ {
				work.Set(i, i, a.At(i, i)+jit)
			}
		}
		ch, err := NewCholesky(work)
		if err == nil {
			return ch, nil
		}
		jit = next
		next *= 10
	}
	return nil, ErrNotPositiveDefinite
}

// L returns the lower-triangular factor (shared storage; do not modify).
func (c *Cholesky) L() *Dense { return c.l }

// SolveVec solves A·x = b given A = L·Lᵀ. b is not modified.
func (c *Cholesky) SolveVec(b []float64) []float64 {
	y := c.SolveLower(b)
	return c.SolveLowerT(y)
}

// SolveLower solves L·y = b by forward substitution.
func (c *Cholesky) SolveLower(b []float64) []float64 {
	if len(b) != c.n {
		panic(fmt.Sprintf("mat: SolveLower length %d want %d", len(b), c.n))
	}
	y := make([]float64, c.n)
	for i := 0; i < c.n; i++ {
		s := b[i]
		row := c.l.Row(i)
		for k := 0; k < i; k++ {
			s -= row[k] * y[k]
		}
		y[i] = s / row[i]
	}
	return y
}

// SolveLowerT solves Lᵀ·x = y by backward substitution.
func (c *Cholesky) SolveLowerT(y []float64) []float64 {
	if len(y) != c.n {
		panic(fmt.Sprintf("mat: SolveLowerT length %d want %d", len(y), c.n))
	}
	x := make([]float64, c.n)
	for i := c.n - 1; i >= 0; i-- {
		s := y[i]
		for k := i + 1; k < c.n; k++ {
			s -= c.l.At(k, i) * x[k]
		}
		x[i] = s / c.l.At(i, i)
	}
	return x
}

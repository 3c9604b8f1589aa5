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
	c := new(Cholesky)
	if err := c.FactorizeJitter(a, 0, 1); err != nil {
		return nil, err
	}
	return c, nil
}

// FactorizeJitter factorizes the symmetric matrix a (only the lower
// triangle is read) into c, reusing c's storage when it already holds a
// factor of a's order. The first try adds nothing; each of the other
// maxTries−1 adds diagonal jitter, starting at jitter0 and growing ×10,
// to a copy of a, made only when such a retry runs. a is not modified, and
// must not share storage with c.L(). After an error, c holds no factor
// until a later call succeeds.
func (c *Cholesky) FactorizeJitter(a *Dense, jitter0 float64, maxTries int) error {
	if maxTries < 1 {
		return ErrNotPositiveDefinite
	}
	err := c.factorize(a, cholColumn)
	if err == nil || maxTries == 1 {
		return err
	}
	work := a.Clone()
	jit := jitter0
	for try := 1; try < maxTries; try++ {
		for i := 0; i < work.rows; i++ {
			work.Set(i, i, a.At(i, i)+jit)
		}
		if c.factorize(work, cholColumn) == nil {
			return nil
		}
		jit *= 10
	}
	return ErrNotPositiveDefinite
}

// cholSlack is how far past its n·n entries the factorization workspace
// reaches: the AVX2 column kernel works in blocks of 32 rows, so the last
// block of a column can run up to 31 rows past row n−1.
const cholSlack = PanelWidth - 1

// factorize is the column-form factorization, with col as the column
// kernel. It works column-major in c's own storage (column j at
// w[j·n : j·n+n], rows below the diagonal), so that the rows of a column
// are independent lanes: for each column j, it copies a's rows i ≥ j into
// the column, col subtracts L[i][k]·L[j][k] from each for k ascending,
// and the pivot is checked and square-rooted and the rows below it scaled
// by its inverse. Every entry is the sum the row-form loop forms, in its
// order, with every product rounded on its own, so L is bit-identical to
// it. A last pass transposes L into row-major order with zeros above the
// diagonal, the form L(), the solves and saved models read.
//
// A column's 32-row blocks may run past row n−1 into the next column's top
// rows, and the last column's into the cholSlack entries past n·n. The
// next column is copied from a only when its turn comes, and the rows
// above its diagonal are scratch until the transpose zeroes them, so what
// the overrun writes is never read.
func (c *Cholesky) factorize(a *Dense, col func(w []float64, n, j int)) error {
	n, cols := a.Dims()
	if n != cols {
		panic(fmt.Sprintf("mat: Cholesky of non-square %d×%d", n, cols))
	}
	if c.l == nil || c.l.rows != n || cap(c.l.data) < n*n+cholSlack {
		c.l = &Dense{rows: n, cols: n, data: make([]float64, n*n, n*n+cholSlack)}
	}
	c.n = 0
	w := c.l.data[:n*n+cholSlack]
	for j := 0; j < n; j++ {
		cj := w[j*n : j*n+n]
		for i := j; i < n; i++ {
			cj[i] = a.data[i*n+j]
		}
		col(w, n, j)
		d := cj[j]
		if d <= 0 || math.IsNaN(d) {
			return ErrNotPositiveDefinite
		}
		d = math.Sqrt(d)
		cj[j] = d
		inv := 1 / d
		for i := j + 1; i < n; i++ {
			cj[i] *= inv
		}
	}
	l := c.l.data
	for j := 0; j < n; j++ {
		for i := j + 1; i < n; i++ {
			l[i*n+j] = l[j*n+i]
			l[j*n+i] = 0
		}
	}
	c.n = n
	return nil
}

// cholColumn is the column kernel factorize runs: the AVX2 one where the
// host has it, the Go one elsewhere.
func cholColumn(w []float64, n, j int) {
	if hasAVX2 {
		cholColAsm(w, n, j)
		return
	}
	cholColGo(w, n, j)
}

// cholColGo is the portable column kernel: for each row i of column j from
// the diagonal down, w[j][i] −= w[k][i]·w[k][j] for k = 0..j−1, one
// rounding per product and per difference. It walks the rows four at a
// time, so each loaded L[j][k] feeds four independent chains, and the
// last one to three rows one at a time. It reads and writes rows < n only.
func cholColGo(w []float64, n, j int) {
	cj := w[j*n : j*n+n]
	i := j
	for ; i+4 <= n; i += 4 {
		s0, s1, s2, s3 := cj[i], cj[i+1], cj[i+2], cj[i+3]
		for bk, xk := j, i; bk < j*n; bk, xk = bk+n, xk+n {
			b := w[bk]
			x := w[xk : xk+4 : xk+4]
			s0 -= x[0] * b
			s1 -= x[1] * b
			s2 -= x[2] * b
			s3 -= x[3] * b
		}
		cj[i], cj[i+1], cj[i+2], cj[i+3] = s0, s1, s2, s3
	}
	for ; i < n; i++ {
		s := cj[i]
		for bk, xk := j, i; bk < j*n; bk, xk = bk+n, xk+n {
			s -= w[xk] * w[bk]
		}
		cj[i] = s
	}
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

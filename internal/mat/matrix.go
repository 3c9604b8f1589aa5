// Package mat provides the small dense linear-algebra substrate of the
// Gaussian-process classifier: row-major dense matrices, Cholesky
// factorization and triangular solves, plus the dot product the linear SVM
// also uses.
//
// It is deliberately minimal — only the operations those two learners call —
// and uses float64 throughout. All operations are deterministic.
//
// # Panel kernels
//
// The GP scores its queries in panels of PanelWidth (32): SqDistPanel fills
// a panel with squared kernel distances, ExpPanel maps them through
// exp(−d²/denom) and folds in the latent means and the W^{1/2} scaling,
// and Cholesky.SolveLowerPanel runs the forward substitution over a whole
// panel in place, adding each solved row's squares into one v·v sum per
// query as it stores the row. Fitting uses the same kernels: the GP builds
// its kernel matrix with SqDistPanel and ExpPanel, the training rows
// serving as their own queries.
//
// The factorization (NewCholesky, Cholesky.FactorizeJitter) works column
// by column on a column-major workspace. Row i of column j starts from
// a[i][j] and subtracts L[i][k]·L[j][k] for k ascending, the products and
// the order of the textbook row-by-row loop, so the rows of a column are
// independent lanes; L() is transposed back to row-major at the end.
// Which code runs:
//
//   - On amd64 hosts with AVX2 (CPUID, plus XGETBV for the YMM state the
//     operating system saves; checked once, at start-up), a full panel runs
//     a Go-assembly kernel (panel_amd64.s), and every column of a
//     factorization runs one, one call per column, 32 rows at a time. The
//     distance, solve and column kernels hold 32 lanes in eight YMM
//     accumulators; the exp kernel works four lanes at a time. A column's
//     last 32-row block may run past row n−1; the workspace reaches 31
//     entries past n·n for it, and what such lanes write is never read.
//   - Everything else runs the Go kernels in panel.go and cholesky.go over
//     the same layout: other architectures, hosts without AVX2, and a
//     panel narrower than 32 (a call's last one). The Go column kernel
//     walks four rows at a time. ExpPanel also leaves to Go any row
//     holding a d² beyond ±700·denom or a NaN, and every row where the exp
//     kernel does not match math.Exp (no FMA, or GODEBUG=cpu.fma=off).
//
// Both are bit-identical to each other and to the pointwise loops
// (SolveLower and its caller's v·v loop, the row-form factorization, the
// GP's `d := z − x; d2 += d*d`, and math.Exp). Every lane sums in the same
// index order. The distance, solve and column kernels round every product
// and every sum or difference on their own (VMULPD, then VSUBPD or
// VADDPD), as the Go compiler does on amd64, where it fuses no
// multiply-add unless the code calls math.FMA.
//
// The exp kernel is math.Exp's own amd64 algorithm (exp_amd64.s) on its
// fused path. That algorithm has two paths: math.Exp fuses ten of its
// steps where the CPU has FMA and GODEBUG does not set cpu.fma=off, and
// none elsewhere. At start-up the kernel runs on a probe row, some of
// whose lanes the two paths round differently, and it is used only if
// every lane equals math.Exp's bits; elsewhere every row runs in Go. So
// the exp kernel is the only assembly here that fuses, exactly where
// math.Exp does, and only where math.Exp fuses too. The tests hold the
// assembly to the Go kernels and to a Go port of the fused path bit for
// bit, NaN, infinities, subnormals and −0 included.
//
// Go cannot preempt assembly asynchronously, so one assembly call covers
// one panel, or one factor column, and no more. At n = 150 a panel solve
// is 357,600 multiply-subtracts and holds its goroutine for about 30–50 µs
// on a 2-vCPU Xeon; a factor column is at most 8,160 (column 85: three
// 32-row blocks of 85 steps).
package mat

import "fmt"

// Dense is a dense row-major matrix.
type Dense struct {
	rows, cols int
	data       []float64
}

// NewDense allocates an r×c zero matrix.
func NewDense(r, c int) *Dense {
	if r < 0 || c < 0 {
		panic(fmt.Sprintf("mat: negative dimensions %d×%d", r, c))
	}
	return &Dense{rows: r, cols: c, data: make([]float64, r*c)}
}

// NewDenseData wraps data, r·c values in row-major order, as an r×c
// matrix, without copying.
func NewDenseData(r, c int, data []float64) *Dense {
	if r < 0 || c < 0 || len(data) != r*c {
		panic(fmt.Sprintf("mat: %d values for a %d×%d matrix", len(data), r, c))
	}
	return &Dense{rows: r, cols: c, data: data}
}

// Dims returns the matrix dimensions.
func (m *Dense) Dims() (r, c int) { return m.rows, m.cols }

// At returns the element at row i, column j.
func (m *Dense) At(i, j int) float64 { return m.data[i*m.cols+j] }

// Set assigns the element at row i, column j.
func (m *Dense) Set(i, j int, v float64) { m.data[i*m.cols+j] = v }

// Row returns a view of row i (shared backing array).
func (m *Dense) Row(i int) []float64 { return m.data[i*m.cols : (i+1)*m.cols] }

// Clone returns a deep copy.
func (m *Dense) Clone() *Dense {
	out := NewDense(m.rows, m.cols)
	copy(out.data, m.data)
	return out
}

// MulVec computes y = M·x.
func (m *Dense) MulVec(x []float64) []float64 {
	if len(x) != m.cols {
		panic(fmt.Sprintf("mat: MulVec dimension mismatch %d×%d · %d", m.rows, m.cols, len(x)))
	}
	y := make([]float64, m.rows)
	for i := 0; i < m.rows; i++ {
		row := m.Row(i)
		var s float64
		for j, v := range row {
			s += v * x[j]
		}
		y[i] = s
	}
	return y
}

// Dot returns the inner product of two equal-length vectors.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("mat: Dot length mismatch %d vs %d", len(a), len(b)))
	}
	var s float64
	for i, v := range a {
		s += v * b[i]
	}
	return s
}

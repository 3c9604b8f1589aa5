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
// a panel with squared kernel distances, and Cholesky.SolveLowerPanel runs
// the forward substitution over a whole panel in place. Which code runs:
//
//   - On amd64 hosts with AVX2 (CPUID, plus XGETBV for the YMM state the
//     operating system saves; checked once, at start-up), a full panel runs
//     a Go-assembly kernel (panel_amd64.s) that holds one panel row in
//     eight YMM accumulators.
//   - Everything else runs the Go kernels in panel.go over the same layout,
//     four columns at a time: other architectures, hosts without AVX2, and
//     a panel narrower than 32 (a call's last one).
//
// Both are bit-identical to each other and to the pointwise loops
// (SolveLower, and the GP's `d := z − x; d2 += d*d`). Every lane sums in
// the same index order, and every product and every sum or difference
// rounds on its own. So the assembly multiplies, then subtracts or adds
// (VMULPD, then VSUBPD or VADDPD), and never uses a fused multiply-add,
// whose single rounding would change the last bit; the Go compiler fuses
// nothing on amd64 unless the code calls math.FMA. The tests hold the
// assembly to the Go kernels bit for bit, NaN, infinities, subnormals and
// −0 included.
//
// Go cannot preempt assembly asynchronously, so one assembly call covers
// one panel and no more. At n = 150 a panel solve is 357,600
// multiply-subtracts and holds its goroutine for about 30–50 µs on a
// 2-vCPU Xeon.
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

package ml

import "fmt"

// Matrix is a flat row-major feature matrix: Rows feature vectors of Cols
// entries each, stored contiguously in Data with stride Cols. It is the
// columnar (structure-of-arrays) counterpart of [][]float64 — one backing
// allocation instead of one per row, cache-linear row iteration, and cheap
// sub-range views. Row and Slice return views into the same backing array;
// mutating a view mutates the matrix.
type Matrix struct {
	Data []float64
	Rows int
	Cols int
}

// NewMatrix allocates a zeroed rows×cols matrix in one backing slice.
func NewMatrix(rows, cols int) Matrix {
	return Matrix{Data: make([]float64, rows*cols), Rows: rows, Cols: cols}
}

// MatrixFromRows copies X into a freshly allocated flat matrix. Rows must be
// rectangular; it panics otherwise (callers check row widths first).
func MatrixFromRows(X [][]float64) Matrix {
	if len(X) == 0 {
		return Matrix{}
	}
	m := NewMatrix(len(X), len(X[0]))
	for i, row := range X {
		if len(row) != m.Cols {
			panic(fmt.Sprintf("ml: row %d has %d features, want %d", i, len(row), m.Cols))
		}
		copy(m.Data[i*m.Cols:(i+1)*m.Cols], row)
	}
	return m
}

// Row returns the i-th feature vector as a view into the backing array.
func (m Matrix) Row(i int) []float64 {
	return m.Data[i*m.Cols : (i+1)*m.Cols : (i+1)*m.Cols]
}

// Slice returns the [lo, hi) row range as a view sharing the backing array.
func (m Matrix) Slice(lo, hi int) Matrix {
	return Matrix{Data: m.Data[lo*m.Cols : hi*m.Cols], Rows: hi - lo, Cols: m.Cols}
}

// ToRows returns per-row views over the backing array — the zero-copy bridge
// to [][]float64 APIs. The views alias the matrix; do not mutate them.
func (m Matrix) ToRows() [][]float64 {
	out := make([][]float64, m.Rows)
	for i := range out {
		out[i] = m.Row(i)
	}
	return out
}

package mat

import (
	"fmt"
	"math"
	"unsafe"
)

// PanelWidth is the number of right-hand sides (or queries) one panel
// holds: eight 4-double YMM accumulators' worth.
const PanelWidth = 32

// AlignedPanel returns the n-long window of buf that starts on a 64-byte
// boundary. buf must hold n+7 floats. The assembly kernels load and store
// whole 32-byte vectors, and a panel that starts on a cache line never
// splits one.
func AlignedPanel(buf []float64, n int) []float64 {
	if len(buf) < n+7 {
		panic(fmt.Sprintf("mat: AlignedPanel buffer length %d want ≥ %d", len(buf), n+7))
	}
	off := 0
	if len(buf) > 0 {
		off = int((64-uintptr(unsafe.Pointer(&buf[0]))%64)%64) / 8
	}
	return buf[off : off+n : off+n]
}

// SolveLowerPanel solves L·Y = P in place for a panel of w right-hand
// sides stored by row: P holds n rows of w values, and column q of the
// panel (P[i*w+q] for i ascending) is one right-hand side. Each column is
// solved in SolveLower's exact order (k ascending, one subtraction per
// step, then one division by the diagonal), so every result is
// bit-identical to SolveLower on that column. Full panels (w =
// PanelWidth) run the AVX2 kernel where the host has it; every other
// case runs the Go kernel.
func (c *Cholesky) SolveLowerPanel(P []float64, w int) {
	n := c.n
	if w < 0 || w > PanelWidth || len(P) != n*w {
		panic(fmt.Sprintf("mat: SolveLowerPanel buffer length %d want %d×%d (width ≤ %d)", len(P), n, w, PanelWidth))
	}
	if n == 0 || w == 0 {
		return
	}
	if w == PanelWidth && hasAVX2 {
		solveLowerPanelAsm(c.l.data, n, P)
		return
	}
	solveLowerPanelGo(c.l.data, n, P, w)
}

// SqDistPanel fills D (n rows of w values) with squared Euclidean
// distances: D[i*w+q] is the distance between row i of X (n rows of k
// features, row-major) and column q of ZT (k rows of w values: the
// queries stored feature-major). Each distance sums its k squared
// differences (z − x)² in feature order from +0, as the pointwise loop
// `d := z[j] − x[j]; d2 += d*d` does, so every entry is bit-identical to
// it. Full panels run the AVX2 kernel where the host has it.
func SqDistPanel(D, X, ZT []float64, n, k, w int) {
	if n < 0 || k < 0 || w < 0 || w > PanelWidth || len(D) != n*w || len(X) != n*k || len(ZT) != k*w {
		panic(fmt.Sprintf("mat: SqDistPanel lengths D %d X %d ZT %d want %d×%d, %d×%d, %d×%d (width ≤ %d)",
			len(D), len(X), len(ZT), n, w, n, k, k, w, PanelWidth))
	}
	if n == 0 || w == 0 {
		return
	}
	if w == PanelWidth && k > 0 && hasAVX2 {
		sqDistPanelAsm(D, X, ZT, n, k)
		return
	}
	sqDistPanelGo(D, X, ZT, n, k, w)
}

// expMaxArg bounds the exp kernel's inputs: a row holding a d² outside
// [−expMaxArg·denom, expMaxArg·denom] runs in Go. Within it exp(x) and its
// power of two 2^round(x·log2 e) are normal floats, so the kernel never
// meets the overflow, denormal and non-finite branches of math.Exp.
const expMaxArg = 700

// expProbe is lane q of the row that checks the exp kernel at start-up:
// d² = (3+17q)/16 at denominator 1, so x runs from −0.1875 to −33.125.
// archExp's two paths round four of its lanes differently (the tests hold
// it to at least one), so the kernel, which follows the fused path, cannot
// match math.Exp on its plain path.
func expProbe(q int) float64 { return float64(3+17*q) / 16 }

// ExpPanel maps a panel of squared distances through exp(−d²/denom) and
// folds it into two uses at once, in place: P holds n rows of w values,
// weight and scale one value per row, and sums w values. For each row i in
// order, and each column q,
//
//	e := math.Exp(-P[i*w+q] / denom)
//	sums[q] += e * weight[i]
//	P[i*w+q] = e * scale[i]
//
// which is the loop a row runs in Go. A full panel (w = PanelWidth) runs
// the AVX2 exp kernel where it rounds as math.Exp does on the host (see
// the package doc), so every result is bit-identical to the Go loop's; a
// row holding a d² beyond ±700·denom, or a NaN, runs in Go, and the
// kernel resumes after it.
func ExpPanel(P []float64, n, w int, denom float64, weight, scale, sums []float64) {
	if n < 0 || w < 0 || w > PanelWidth || len(P) != n*w || len(weight) != n || len(scale) != n || len(sums) != w {
		panic(fmt.Sprintf("mat: ExpPanel lengths P %d weight %d scale %d sums %d want %d×%d, %d, %d, %d (width ≤ %d)",
			len(P), len(weight), len(scale), len(sums), n, w, n, n, w, PanelWidth))
	}
	// A bound that is not a positive finite number could let ±Inf or 0/0
	// into the kernel.
	hi := expMaxArg * denom
	kernel := w == PanelWidth && useExpKernel && hi > 0 && hi <= math.MaxFloat64
	for i := 0; i < n; i++ {
		if kernel {
			// The kernel takes the rows up to the first it must not; that
			// row runs in Go, and the kernel resumes after it.
			i += expRowsAsm(P[i*w:], denom, hi, weight[i:], scale[i:], sums)
			if i == n {
				return
			}
		}
		expRowGo(P[i*w:(i+1)*w], denom, weight[i], scale[i], sums)
	}
}

// expRowGo is ExpPanel's loop for one row.
func expRowGo(row []float64, denom, weight, scale float64, sums []float64) {
	sums = sums[:len(row)]
	for q, d2 := range row {
		e := math.Exp(-d2 / denom)
		sums[q] += e * weight
		row[q] = e * scale
	}
}

// solveLowerPanelGo is the portable panel forward substitution, one panel
// row at a time.
func solveLowerPanelGo(l []float64, n int, P []float64, w int) {
	for i := 0; i < n; i++ {
		solveRowGo(l[i*n:i*n+i+1], P, i*w, w)
	}
}

// solveRowGo solves panel row i, P[base:base+w], against the rows above it,
// with lrow = L[i][0..i]. It walks the row four columns at a time, so each
// loaded L[i][k] feeds four independent accumulators; a width that is not
// a multiple of four finishes one column at a time. It is a function of its
// own so that the inner loop's state fits in registers.
func solveRowGo(lrow, P []float64, base, w int) {
	i := len(lrow) - 1
	d := lrow[i]
	lk := lrow[:i]
	yi := P[base : base+w]
	q := 0
	for ; q+4 <= w; q += 4 {
		s0, s1, s2, s3 := yi[q], yi[q+1], yi[q+2], yi[q+3]
		off := q
		for _, v := range lk {
			y := P[off : off+4 : off+4]
			s0 -= v * y[0]
			s1 -= v * y[1]
			s2 -= v * y[2]
			s3 -= v * y[3]
			off += w
		}
		yi[q] = s0 / d
		yi[q+1] = s1 / d
		yi[q+2] = s2 / d
		yi[q+3] = s3 / d
	}
	for ; q < w; q++ {
		s := yi[q]
		off := q
		for _, v := range lk {
			s -= v * P[off]
			off += w
		}
		yi[q] = s / d
	}
}

// sqDistPanelGo is the portable distance kernel, four queries at a time
// with one column at a time for the rest.
func sqDistPanelGo(D, X, ZT []float64, n, k, w int) {
	for i := 0; i < n; i++ {
		xi := X[i*k : (i+1)*k]
		di := D[i*w : (i+1)*w]
		q := 0
		for ; q+4 <= w; q += 4 {
			var s0, s1, s2, s3 float64
			off := q
			for _, x := range xi {
				z := ZT[off : off+4 : off+4]
				d0 := z[0] - x
				d1 := z[1] - x
				d2 := z[2] - x
				d3 := z[3] - x
				s0 += d0 * d0
				s1 += d1 * d1
				s2 += d2 * d2
				s3 += d3 * d3
				off += w
			}
			di[q], di[q+1], di[q+2], di[q+3] = s0, s1, s2, s3
		}
		for ; q < w; q++ {
			var s float64
			off := q
			for _, x := range xi {
				d := ZT[off] - x
				s += d * d
				off += w
			}
			di[q] = s
		}
	}
}

package mat

import (
	"math"
	"testing"
	"unsafe"

	"paws/internal/rng"
)

// panelSizes are the factor orders the panel tests cover: the smallest
// cases, an odd size, the GP's usual training size and one past it.
var panelSizes = []int{1, 2, 17, 150, 151}

// randomFactor returns the Cholesky factor of a random SPD matrix
// A = MᵀM + n·I.
func randomFactor(t *testing.T, r *rng.RNG, n int) *Cholesky {
	t.Helper()
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
	return ch
}

// specials are the values a right-hand side or a query may carry besides
// ordinary normals: NaN, both infinities, subnormals and −0.
var specials = []float64{
	math.NaN(), math.Inf(1), math.Inf(-1),
	math.SmallestNonzeroFloat64, -3 * math.SmallestNonzeroFloat64, 0x1p-1060,
	math.Copysign(0, -1), 0,
}

// fill returns length normals; when every > 0, about one entry in every
// is replaced by a special value. A NaN or an infinity spreads to the
// rest of its column, so the rate is kept low enough that most columns
// also carry ordinary values past their first special one.
func fill(r *rng.RNG, length, every int) []float64 {
	s := make([]float64, length)
	for i := range s {
		s[i] = r.NormFloat64()
		if every > 0 && r.Intn(every) == 0 {
			s[i] = specials[r.Intn(len(specials))]
		}
	}
	return s
}

// sameBits fails the test at the first entry whose bits differ.
func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d want %d", what, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: entry %d is %v (%#x), want %v (%#x)", what, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// columns solves each column of an n×w panel with SolveLower and returns
// the solutions as a panel, and then, for each column, the sum of its
// squares taken by a separate loop over the solved rows in ascending
// order from +0, the order SolveLowerPanel's sums must keep.
func columns(ch *Cholesky, P []float64, w int) (sol, vv []float64) {
	n := ch.n
	sol = make([]float64, n*w)
	col := make([]float64, n)
	for q := 0; q < w; q++ {
		for i := range col {
			col[i] = P[i*w+q]
		}
		for i, v := range ch.SolveLower(col) {
			sol[i*w+q] = v
		}
	}
	vv = make([]float64, w)
	for i := 0; i < n; i++ {
		for q, v := range sol[i*w : (i+1)*w] {
			vv[q] += v * v
		}
	}
	return sol, vv
}

// TestSolveLowerBatchMatchesSolveLower asserts the panel forward
// substitution, SolveLowerPanel, is bit-identical to the one-column-at-a-
// time path at every panel width, and its sums of squares to a separate
// loop over the solved panel: partial widths exercise the Go kernel's
// four-way groups and its tail, and the full width the kernel the host
// dispatches to.
func TestSolveLowerBatchMatchesSolveLower(t *testing.T) {
	r := rng.New(3)
	for _, n := range panelSizes {
		ch := randomFactor(t, r, n)
		for w := 1; w <= PanelWidth; w++ {
			P := fill(r, n*w, 0)
			want, wantVV := columns(ch, P, w)
			vv := make([]float64, w)
			ch.SolveLowerPanel(P, w, vv)
			sameBits(t, "SolveLowerPanel", P, want)
			sameBits(t, "SolveLowerPanel sums", vv, wantVV)
		}
	}
}

// TestSolveLowerPanelKernels compares the Go kernel and, where the host
// has AVX2, the assembly kernel with SolveLower bit for bit, on right-hand
// sides that carry NaN, ±Inf, subnormals and −0, and their sums of
// squares with a separate loop over the solved rows. The assembly only
// runs full panels, so a w-column case fills the other columns with
// unrelated values that must not leak into the first w. It runs both on
// an aligned panel and on one shifted off the cache line.
func TestSolveLowerPanelKernels(t *testing.T) {
	r := rng.New(5)
	for _, n := range panelSizes {
		ch := randomFactor(t, r, n)
		for w := 1; w <= PanelWidth; w++ {
			P := fill(r, n*w, 2*n)
			want, wantVV := columns(ch, P, w)

			goP := append([]float64(nil), P...)
			vv := make([]float64, w)
			solveLowerPanelGo(ch.l.data, n, goP, w, vv)
			sameBits(t, "Go kernel", goP, want)
			sameBits(t, "Go kernel sums", vv, wantVV)

			if !hasAVX2 {
				continue
			}
			buf := make([]float64, n*PanelWidth+8)
			for shift := 0; shift < 2; shift++ {
				full := AlignedPanel(buf, n*PanelWidth+1)[shift : shift+n*PanelWidth]
				copy(full, fill(r, len(full), 2*n))
				for i := 0; i < n; i++ {
					copy(full[i*PanelWidth:i*PanelWidth+w], P[i*w:(i+1)*w])
				}
				vvFull := make([]float64, PanelWidth)
				solveLowerPanelAsm(ch.l.data, n, full, vvFull)
				got := make([]float64, n*w)
				for i := 0; i < n; i++ {
					copy(got[i*w:(i+1)*w], full[i*PanelWidth:])
				}
				sameBits(t, "AVX2 kernel", got, want)
				sameBits(t, "AVX2 kernel sums", vvFull[:w], wantVV)
			}
		}
	}
	if !hasAVX2 {
		t.Skip("host has no AVX2 (or the OS does not enable YMM state): assembly kernel not tested; the Go kernel was")
	}
}

// TestSqDistPanelKernels compares the Go distance kernel, the dispatching
// SqDistPanel and, where the host has AVX2, the assembly kernel with the
// plain pointwise loop bit for bit, queries carrying special values.
func TestSqDistPanelKernels(t *testing.T) {
	r := rng.New(7)
	for _, k := range []int{1, 2, 22} {
		for _, n := range []int{1, 17, 150} {
			X := fill(r, n*k, 0)
			for w := 1; w <= PanelWidth; w++ {
				ZT := fill(r, k*w, 3*k)
				want := make([]float64, n*w)
				for i := 0; i < n; i++ {
					for q := 0; q < w; q++ {
						var d2 float64
						for j := 0; j < k; j++ {
							d := ZT[j*w+q] - X[i*k+j]
							d2 += d * d
						}
						want[i*w+q] = d2
					}
				}
				D := make([]float64, n*w)
				sqDistPanelGo(D, X, ZT, n, k, w)
				sameBits(t, "Go kernel", D, want)
				clear(D)
				SqDistPanel(D, X, ZT, n, k, w)
				sameBits(t, "SqDistPanel", D, want)

				if !hasAVX2 {
					continue
				}
				zfull := fill(r, k*PanelWidth, 3*k)
				for j := 0; j < k; j++ {
					copy(zfull[j*PanelWidth:j*PanelWidth+w], ZT[j*w:(j+1)*w])
				}
				dfull := make([]float64, n*PanelWidth)
				sqDistPanelAsm(dfull, X, zfull, n, k)
				got := make([]float64, n*w)
				for i := 0; i < n; i++ {
					copy(got[i*w:(i+1)*w], dfull[i*PanelWidth:])
				}
				sameBits(t, "AVX2 kernel", got, want)
			}
		}
	}
	if !hasAVX2 {
		t.Skip("host has no AVX2 (or the OS does not enable YMM state): assembly kernel not tested; the Go kernel was")
	}
}

// TestAlignedPanel asserts the window starts on a 64-byte boundary,
// whatever the buffer's own offset.
func TestAlignedPanel(t *testing.T) {
	buf := make([]float64, 64)
	for off := 0; off < 8; off++ {
		p := AlignedPanel(buf[off:], 40)
		if len(p) != 40 || cap(p) != 40 {
			t.Fatalf("offset %d: len %d cap %d, want 40", off, len(p), cap(p))
		}
		if !isAligned(p) {
			t.Fatalf("offset %d: window not 64-byte aligned", off)
		}
	}
}

func isAligned(p []float64) bool { return uintptr(unsafe.Pointer(&p[0]))%64 == 0 }

// TestSolveLowerBatchEmpty asserts an empty panel (w = 0, nil or empty
// buffer) is accepted and solves nothing, and that a buffer whose length
// does not match n·w, a width over PanelWidth, or sums whose length is not
// w, are rejected.
func TestSolveLowerBatchEmpty(t *testing.T) {
	a := NewDense(2, 2)
	a.Set(0, 0, 4)
	a.Set(1, 1, 9)
	ch, err := NewCholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	ch.SolveLowerPanel(nil, 0, nil)
	ch.SolveLowerPanel([]float64{}, 0, []float64{})
	for _, c := range []struct {
		P  []float64
		w  int
		vv []float64
	}{
		{[]float64{1, 2}, 0, nil},
		{make([]float64, 2*(PanelWidth+1)), PanelWidth + 1, make([]float64, PanelWidth+1)},
		{[]float64{1, 2}, 1, nil},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("SolveLowerPanel accepted a %d-long buffer and %d sums for w = %d", len(c.P), len(c.vv), c.w)
				}
			}()
			ch.SolveLowerPanel(c.P, c.w, c.vv)
		}()
	}
}

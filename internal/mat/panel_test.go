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
// the solutions as a panel.
func columns(ch *Cholesky, P []float64, w int) []float64 {
	n := ch.n
	out := make([]float64, n*w)
	col := make([]float64, n)
	for q := 0; q < w; q++ {
		for i := range col {
			col[i] = P[i*w+q]
		}
		for i, v := range ch.SolveLower(col) {
			out[i*w+q] = v
		}
	}
	return out
}

// TestSolveLowerBatchMatchesSolveLower asserts the panel forward
// substitution, SolveLowerPanel, is bit-identical to the one-column-at-a-
// time path at every panel width: partial widths exercise the Go kernel's
// four-way groups and its tail, and the full width the kernel the host
// dispatches to.
func TestSolveLowerBatchMatchesSolveLower(t *testing.T) {
	r := rng.New(3)
	for _, n := range panelSizes {
		ch := randomFactor(t, r, n)
		for w := 1; w <= PanelWidth; w++ {
			P := fill(r, n*w, 0)
			want := columns(ch, P, w)
			ch.SolveLowerPanel(P, w)
			sameBits(t, "SolveLowerPanel", P, want)
		}
	}
}

// TestSolveLowerPanelKernels compares the Go kernel and, where the host
// has AVX2, the assembly kernel with SolveLower bit for bit, on right-hand
// sides that carry NaN, ±Inf, subnormals and −0. The assembly only runs
// full panels, so a w-column case fills the other columns with unrelated
// values that must not leak into the first w. It runs both on an aligned
// panel and on one shifted off the cache line.
func TestSolveLowerPanelKernels(t *testing.T) {
	r := rng.New(5)
	for _, n := range panelSizes {
		ch := randomFactor(t, r, n)
		for w := 1; w <= PanelWidth; w++ {
			P := fill(r, n*w, 2*n)
			want := columns(ch, P, w)

			goP := append([]float64(nil), P...)
			solveLowerPanelGo(ch.l.data, n, goP, w)
			sameBits(t, "Go kernel", goP, want)

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
				solveLowerPanelAsm(ch.l.data, n, full)
				got := make([]float64, n*w)
				for i := 0; i < n; i++ {
					copy(got[i*w:(i+1)*w], full[i*PanelWidth:])
				}
				sameBits(t, "AVX2 kernel", got, want)
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
// does not match n·w, or a width over PanelWidth, is rejected.
func TestSolveLowerBatchEmpty(t *testing.T) {
	a := NewDense(2, 2)
	a.Set(0, 0, 4)
	a.Set(1, 1, 9)
	ch, err := NewCholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	ch.SolveLowerPanel(nil, 0)
	ch.SolveLowerPanel([]float64{}, 0)
	for _, c := range []struct {
		P []float64
		w int
	}{
		{[]float64{1, 2}, 0},
		{make([]float64, 2*(PanelWidth+1)), PanelWidth + 1},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("SolveLowerPanel accepted a %d-long buffer for w = %d", len(c.P), c.w)
				}
			}()
			ch.SolveLowerPanel(c.P, c.w)
		}()
	}
}

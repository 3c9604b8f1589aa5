package mat

import (
	"math"
	"testing"

	"paws/internal/mat/exptest"
	"paws/internal/rng"
)

// skipNoFMA skips the assembly half of a test with the reason.
func skipNoFMA(t *testing.T) {
	t.Helper()
	if !hasFMA {
		t.Skip("host has no AVX2 and FMA (or the OS does not enable YMM state): exp kernel not tested")
	}
}

// expWant is ExpPanel's Go loop over every row, with e computed by exp.
func expWant(P []float64, w int, denom float64, weight, scale, sums []float64, exp func(float64) float64) {
	for i := range weight {
		row := P[i*w : (i+1)*w]
		for q, d2 := range row {
			e := exp(-d2 / denom)
			sums[q] += e * weight[i]
			row[q] = e * scale[i]
		}
	}
}

// expCase is one full panel with its per-row weights and scales and the
// sums it adds into.
type expCase struct {
	P, weight, scale, sums []float64
	denom                  float64
}

func (c expCase) n() int { return len(c.weight) }

// clone deep-copies c, placing P at offset shift past a 64-byte boundary.
func (c expCase) clone(shift int) expCase {
	buf := make([]float64, len(c.P)+8)
	P := AlignedPanel(buf, len(c.P)+1)[shift : shift+len(c.P)]
	copy(P, c.P)
	dup := func(s []float64) []float64 { return append([]float64(nil), s...) }
	return expCase{P, dup(c.weight), dup(c.scale), dup(c.sums), c.denom}
}

// want runs the Go loop on a copy of c with exp in place of math.Exp.
func (c expCase) want(exp func(float64) float64) expCase {
	w := c.clone(0)
	expWant(w.P, PanelWidth, w.denom, w.weight, w.scale, w.sums, exp)
	return w
}

// inRangeCase draws an n-row panel of d² spread over the whole kernel
// range, x = −d²/denom uniform in [−700, 0] with one entry in eight in
// [0, 700], and then the in-range edges: ±0, subnormals, d² that make x
// subnormal, and ±700·denom exactly.
func inRangeCase(r *rng.RNG, n int, denom float64) expCase {
	c := expCase{
		P:      make([]float64, n*PanelWidth),
		weight: make([]float64, n),
		scale:  make([]float64, n),
		sums:   make([]float64, PanelWidth),
		denom:  denom,
	}
	hi := expMaxArg * denom
	for i := range c.P {
		c.P[i] = r.Float64() * hi
		if r.Intn(8) == 0 {
			c.P[i] = -c.P[i]
		}
	}
	edges := []float64{0, math.Copysign(0, -1), math.SmallestNonzeroFloat64, -0x1p-1060,
		0x1p-1030 * denom, -0x1p-1040 * denom, hi, -hi}
	for _, e := range edges {
		c.P[r.Intn(len(c.P))] = e
	}
	for i := range c.weight {
		c.weight[i] = r.NormFloat64()
		c.scale[i] = math.Abs(r.NormFloat64())
	}
	for q := range c.sums {
		c.sums[q] = r.NormFloat64()
	}
	return c
}

// fusedStepInputs are d² at denominator 1 at which the fused path's result
// changes if only its polynomial's +0.5 step (the first four) or its +1
// step (the last four) rounds on its own; a search with the port found
// them. Unfusing the last squaring's +1 changes about one random result in
// eleven, but unfusing any earlier step changed none of 5·10^6 random
// inputs, so random panels alone would miss the first two.
var fusedStepInputs = []float64{665.067683, 409.281397, 219.273595, 293.659935,
	635.230483, 82.107026, 347.647321, 523.69999}

// fixedCase is a one-row panel at denominator 1: fusedStepInputs, then
// the probe row's lanes.
func fixedCase() expCase {
	c := expCase{
		P:      make([]float64, PanelWidth),
		weight: []float64{1.5},
		scale:  []float64{0.75},
		sums:   make([]float64, PanelWidth),
		denom:  1,
	}
	for q := range c.P {
		c.P[q] = expProbe(q)
	}
	copy(c.P, fusedStepInputs)
	return c
}

// expDenoms are the denominators 2ℓ² the kernel tests run at: a length
// scale of 1, the GP's usual few, and small and large extremes.
var expDenoms = []float64{1, 2 * 0.7 * 0.7, 37.5, 1e-3, 3e5}

// sameCase fails the test unless got and want match bit for bit.
func sameCase(t *testing.T, what string, got, want expCase) {
	t.Helper()
	sameBits(t, what+" panel", got.P, want.P)
	sameBits(t, what+" sums", got.sums, want.sums)
}

// TestExpKernelMatchesPort holds the exp kernel to the fused path of the
// Go port of math.Exp's amd64 algorithm, on panels spread over the
// kernel's whole input range with its edges, aligned and not, and on
// fixedCase. It runs wherever the CPU can execute the kernel, also where
// math.Exp takes its plain path and ExpPanel does not use it. An in-range
// panel must also run through the kernel to its last row: a range check
// that turned every row away would leave the work to the Go loop and pass
// otherwise.
func TestExpKernelMatchesPort(t *testing.T) {
	skipNoFMA(t)
	r := rng.New(11)
	cases := []expCase{fixedCase()}
	for _, n := range []int{1, 2, 17, 150} {
		for _, denom := range expDenoms {
			cases = append(cases, inRangeCase(r, n, denom))
		}
	}
	for _, c := range cases {
		want := c.want(func(x float64) float64 { return exptest.Exp(x, true) })
		for shift := 0; shift < 2; shift++ {
			got := c.clone(shift)
			if done := expRowsAsm(got.P, c.denom, expMaxArg*c.denom, got.weight, got.scale, got.sums); done != c.n() {
				t.Fatalf("n %d, denom %v: took %d of %d in-range rows", c.n(), c.denom, done, c.n())
			}
			sameCase(t, "exp kernel vs Go port", got, want)
		}
	}
}

// TestExpKernelMatchesMathExp checks the start-up choice and then holds
// ExpPanel to its Go loop with math.Exp itself. The kernel must be in use
// exactly where the CPU can execute it and math.Exp takes the fused path
// it follows.
func TestExpKernelMatchesMathExp(t *testing.T) {
	if !hasAVX2 {
		t.Skip("host has no AVX2 (or the OS does not enable YMM state): exp kernel not tested")
	}
	if want := hasFMA && exptest.MathExpFused(t); useExpKernel != want {
		t.Fatalf("exp kernel in use = %v, want %v (CPU FMA %v)", useExpKernel, want, hasFMA)
	}
	r := rng.New(12)
	for _, denom := range expDenoms {
		c := inRangeCase(r, 150, denom)
		want := c.want(math.Exp)
		got := c.clone(0)
		ExpPanel(got.P, c.n(), PanelWidth, denom, got.weight, got.scale, got.sums)
		sameCase(t, "ExpPanel vs math.Exp", got, want)
	}
}

// TestExpPanelOutOfRange puts values the kernel must not take or must
// take exactly (NaN, ±Inf, d² just past ±700·denom, a huge d², subnormals
// and ±0) at every lane of the first, a middle and the last row of a
// panel. ExpPanel must still equal its Go loop bit for bit, and the
// kernel must stop at exactly the row that holds an out-of-range value
// and take every row otherwise.
func TestExpPanelOutOfRange(t *testing.T) {
	const n, denom = 17, 2 * 0.7 * 0.7
	hi := expMaxArg * denom
	out := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Nextafter(hi, math.Inf(1)),
		math.Nextafter(-hi, math.Inf(-1)), 1e300}
	in := []float64{math.SmallestNonzeroFloat64, -0x1p-1060, 0, math.Copysign(0, -1)}
	if !hasFMA {
		t.Log("host has no AVX2 and FMA: only ExpPanel's Go loop tested")
	}
	r := rng.New(13)
	base := inRangeCase(r, n, denom)
	for _, v := range append(append([]float64(nil), out...), in...) {
		inRange := math.Abs(v) <= hi
		for _, row := range []int{0, n / 2, n - 1} {
			for q := 0; q < PanelWidth; q++ {
				c := base.clone(0)
				c.P[row*PanelWidth+q] = v
				want := c.want(math.Exp)
				got := c.clone(1)
				ExpPanel(got.P, n, PanelWidth, denom, got.weight, got.scale, got.sums)
				sameCase(t, "ExpPanel with an edge value", got, want)

				if !hasFMA {
					continue
				}
				wantDone := row
				if inRange {
					wantDone = n
				}
				k := c.clone(0)
				if done := expRowsAsm(k.P, denom, hi, k.weight, k.scale, k.sums); done != wantDone {
					t.Fatalf("%v at row %d lane %d: kernel took %d rows, want %d", v, row, q, done, wantDone)
				}
			}
		}
	}
}

// TestExpPanelDenominators runs ExpPanel at denominators whose range
// bound 700·denom is not a positive finite number (it overflows, is zero,
// negative or NaN) against its Go loop: there the bound cannot keep ±Inf
// or 0/0 out of the kernel, so no row may reach it.
func TestExpPanelDenominators(t *testing.T) {
	r := rng.New(15)
	specials := []float64{math.Inf(1), math.Inf(-1), math.NaN(), 1, 0}
	for _, denom := range []float64{1e306, math.Inf(1), 0, -1, math.NaN()} {
		// Row i holds specials[i] in lane i and zeros elsewhere.
		c := inRangeCase(r, len(specials), 1)
		clear(c.P)
		for i, v := range specials {
			c.P[i*PanelWidth+i] = v
		}
		c.denom = denom
		want := c.want(math.Exp)
		got := c.clone(0)
		ExpPanel(got.P, c.n(), PanelWidth, denom, got.weight, got.scale, got.sums)
		sameCase(t, "ExpPanel at an edge denominator", got, want)
	}
}

// TestExpPanelWidths runs ExpPanel at every width against its Go loop:
// narrower panels never reach the kernel.
func TestExpPanelWidths(t *testing.T) {
	r := rng.New(14)
	const n, denom = 17, 3.0
	for w := 1; w <= PanelWidth; w++ {
		P := fill(r, n*w, 0)
		for i := range P {
			P[i] *= P[i]
		}
		weight, scale, sums := fill(r, n, 0), fill(r, n, 0), fill(r, w, 0)
		want := append([]float64(nil), P...)
		wantSums := append([]float64(nil), sums...)
		expWant(want, w, denom, weight, scale, wantSums, math.Exp)
		ExpPanel(P, n, w, denom, weight, scale, sums)
		sameBits(t, "ExpPanel panel", P, want)
		sameBits(t, "ExpPanel sums", sums, wantSums)
	}
}

// TestExpProbeSeparatesPaths asserts that archExp's two paths round at
// least one lane of the probe row differently, so the start-up probe
// turns the kernel down where math.Exp takes its plain path.
func TestExpProbeSeparatesPaths(t *testing.T) {
	for q := 0; q < PanelWidth; q++ {
		if x := -expProbe(q); exptest.Exp(x, true) != exptest.Exp(x, false) {
			return
		}
	}
	t.Fatal("archExp's fused and plain paths agree on every probe lane")
}

// Package exptest is a pure-Go port of math.Exp's amd64 algorithm
// ($GOROOT/src/math/exp_amd64.s: Shibata's method, a two-part ln 2
// reduction, a Taylor polynomial in x/16 and four squarings), for tests
// that must know how math.Exp rounds on the host they run on.
//
// The algorithm has two paths that round differently. Where the CPU has
// FMA, math.Exp takes the fused one: it fuses the two reduction steps,
// the seven polynomial steps and the last squaring with its +1. Elsewhere,
// or under GODEBUG=cpu.fma=off, it takes the plain one, which rounds every
// product and every sum on its own. Of inputs drawn uniformly from
// [−700, 700], about one in eleven gets a different last bit from each.
package exptest

import (
	"math"
	"testing"
)

// The constants of exp_amd64.s.
const (
	log2e = 1.4426950408889634073599246810018920
	ln2U  = 0.69314718055966295651160180568695068359375
	ln2L  = 0.28235290563031577122588448175013436025525412068e-12
)

// taylor holds the polynomial's coefficients, highest degree first: the
// algorithm starts from taylor[0] and multiplies by x and adds the next.
var taylor = [...]float64{
	2.4801587301587301587e-5, 1.9841269841269841270e-4, 1.3888888888888888889e-3,
	8.3333333333333333333e-3, 4.1666666666666666667e-2, 1.6666666666666666667e-1,
	0.5, 1.0,
}

// Exp returns e**x as math.Exp's amd64 algorithm computes it, on its fused
// path when fused is set and on its plain path otherwise. It covers finite
// x in [−700, 700], where the algorithm takes none of its overflow,
// denormal or non-finite branches. Each plain step rounds through an
// explicit float64 conversion, which the Go spec says no fused
// multiply-add may cross, and each fused step is a math.FMA.
func Exp(x float64, fused bool) float64 {
	e := math.RoundToEven(float64(log2e * x)) // CVTSD2SL rounds to nearest even
	p := taylor[0]
	if fused {
		x = math.FMA(-e, ln2U, x)
		x = math.FMA(-e, ln2L, x)
		x = float64(x * 0.0625)
		for _, c := range taylor[1:] {
			p = math.FMA(p, x, c)
		}
		x = float64(x * p)
		for range 3 {
			x = float64(x * float64(x+2))
		}
		x = math.FMA(x, float64(x+2), 1)
	} else {
		x = float64(x - float64(e*ln2U))
		x = float64(x - float64(e*ln2L))
		x = float64(x * 0.0625)
		for _, c := range taylor[1:] {
			p = float64(float64(p*x) + c)
		}
		x = float64(x * p)
		for range 4 {
			x = float64(x * float64(x+2))
		}
		x = float64(x + 1)
	}
	return x * math.Float64frombits(uint64(int64(e)+1023)<<52)
}

// MathExpFused reports whether math.Exp takes the fused path on this host.
// It compares math.Exp with both paths at −3/16, where they differ, and
// fails t if it matches neither: then math.Exp does not run this algorithm
// at all.
func MathExpFused(t testing.TB) bool {
	t.Helper()
	const x = -0.1875
	got := math.Exp(x)
	switch {
	case got == Exp(x, true):
		return true
	case got == Exp(x, false):
		return false
	}
	t.Fatalf("math.Exp(%v) = %#x matches neither path of the amd64 algorithm", x, math.Float64bits(got))
	return false
}

package mat

import (
	"fmt"
	"math"
)

// hasAVX2 reports whether the CPU has AVX2 and the operating system saves
// the YMM registers across context switches (CPUID leaf 1 OSXSAVE and
// AVX, XCR0 bits 1–2, CPUID leaf 7 AVX2); hasFMA, whether it also has FMA
// (leaf 1 FMA), without which expRowsFMA must not run. Both are read once,
// at start-up.
var hasAVX2, hasFMA = detectAVX2()

func detectAVX2() (avx2, fma bool) {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false, false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	const fma3, osxsave, avx = 1 << 12, 1 << 27, 1 << 28
	if ecx1&osxsave == 0 || ecx1&avx == 0 {
		return false, false
	}
	if xcr0, _ := xgetbv(); xcr0&0b110 != 0b110 {
		return false, false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	avx2 = ebx7&(1<<5) != 0
	return avx2, avx2 && ecx1&fma3 != 0
}

// useExpKernel reports whether ExpPanel runs expRowsFMA: the CPU can
// execute it and it rounds as math.Exp does here. The second is checked by
// result, not CPUID: math.Exp takes its fused path where the CPU has FMA
// unless GODEBUG=cpu.fma=off turns it off, and then its plain path, which
// the kernel does not follow. So the kernel runs once on the probe row at
// start-up, and is kept only if every lane equals math.Exp's bits.
var useExpKernel = hasFMA && expProbeMatches()

// expProbeMatches runs expRowsFMA on the probe row with weight 0 and scale
// 1, so the row ends up holding the bare exps, and reports whether it took
// the row and every lane equals math.Exp's bits.
func expProbeMatches() bool {
	var row, sums [PanelWidth]float64
	for q := range row {
		row[q] = expProbe(q)
	}
	if expRowsAsm(row[:], 1, expMaxArg, []float64{0}, []float64{1}, sums[:]) != 1 {
		return false
	}
	for q, e := range row {
		if math.Float64bits(e) != math.Float64bits(math.Exp(-expProbe(q))) {
			return false
		}
	}
	return true
}

// cpuid executes CPUID with EAX = eaxArg and ECX = ecxArg.
func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

// xgetbv reads XCR0, the register of OS-enabled state components.
func xgetbv() (eax, edx uint32)

// solveLowerPanelAsm runs the AVX2 forward substitution on one full panel
// (n rows of PanelWidth values) against the row-major n×n factor l, adding
// each solved row's squares into vv.
func solveLowerPanelAsm(l []float64, n int, P, vv []float64) {
	if n <= 0 || len(l) != n*n || len(P) != n*PanelWidth || len(vv) != PanelWidth {
		panic(fmt.Sprintf("mat: panel solve lengths L %d P %d vv %d want %d, %d, %d",
			len(l), len(P), len(vv), n*n, n*PanelWidth, PanelWidth))
	}
	solveLowerPanelAVX2(&l[0], n, &P[0], &vv[0])
}

// cholColAsm runs the AVX2 column kernel on column j of the column-major
// n×n factorization workspace w, which must reach cholSlack entries past
// n·n for the last 32-row block of a column.
func cholColAsm(w []float64, n, j int) {
	if n <= 0 || j < 0 || j >= n || len(w) != n*n+cholSlack {
		panic(fmt.Sprintf("mat: column kernel length %d column %d want %d, < %d", len(w), j, n*n+cholSlack, n))
	}
	cholColAVX2(&w[0], n, j)
}

// sqDistPanelAsm runs the AVX2 distance kernel on one full panel.
func sqDistPanelAsm(D, X, ZT []float64, n, k int) {
	if n <= 0 || k <= 0 || len(D) != n*PanelWidth || len(X) != n*k || len(ZT) != k*PanelWidth {
		panic(fmt.Sprintf("mat: panel distance lengths D %d X %d ZT %d want %d, %d, %d",
			len(D), len(X), len(ZT), n*PanelWidth, n*k, k*PanelWidth))
	}
	sqDistPanelAVX2(&D[0], &X[0], &ZT[0], n, k)
}

// expRowsAsm runs expRowsFMA down the full rows of P, weight and scale
// holding one entry per row, and returns the number of rows it did: it
// stops at the first row that holds a d² with |d²| > hi, or a NaN. hi must
// be finite.
func expRowsAsm(P []float64, denom, hi float64, weight, scale, sums []float64) int {
	n := len(weight)
	if n == 0 || len(P) != n*PanelWidth || len(scale) != n || len(sums) != PanelWidth {
		panic(fmt.Sprintf("mat: exp kernel lengths P %d weight %d scale %d sums %d want %d, %d, %d, %d",
			len(P), n, len(scale), len(sums), n*PanelWidth, n, n, PanelWidth))
	}
	return expRowsFMA(&P[0], n, -denom, hi, &weight[0], &scale[0], &sums[0])
}

//go:noescape
func solveLowerPanelAVX2(l *float64, n int, p, vv *float64)

//go:noescape
func cholColAVX2(w *float64, n, j int)

//go:noescape
func sqDistPanelAVX2(d, x, zt *float64, n, k int)

//go:noescape
func expRowsFMA(p *float64, n int, negDenom, hi float64, weight, scale, sums *float64) int

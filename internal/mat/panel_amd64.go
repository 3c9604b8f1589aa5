package mat

import "fmt"

// hasAVX2 reports whether the CPU has AVX2 and the operating system saves
// the YMM registers across context switches (CPUID leaf 1 OSXSAVE and
// AVX, XCR0 bits 1–2, CPUID leaf 7 AVX2). It is read once, at start-up.
var hasAVX2 = detectAVX2()

func detectAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	const osxsave, avx = 1 << 27, 1 << 28
	if ecx1&osxsave == 0 || ecx1&avx == 0 {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&0b110 != 0b110 {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	return ebx7&(1<<5) != 0
}

// cpuid executes CPUID with EAX = eaxArg and ECX = ecxArg.
func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

// xgetbv reads XCR0, the register of OS-enabled state components.
func xgetbv() (eax, edx uint32)

// solveLowerPanelAsm runs the AVX2 forward substitution on one full panel
// (n rows of PanelWidth values) against the row-major n×n factor l.
func solveLowerPanelAsm(l []float64, n int, P []float64) {
	if n <= 0 || len(l) != n*n || len(P) != n*PanelWidth {
		panic(fmt.Sprintf("mat: panel solve lengths L %d P %d want %d, %d", len(l), len(P), n*n, n*PanelWidth))
	}
	solveLowerPanelAVX2(&l[0], n, &P[0])
}

// sqDistPanelAsm runs the AVX2 distance kernel on one full panel.
func sqDistPanelAsm(D, X, ZT []float64, n, k int) {
	if n <= 0 || k <= 0 || len(D) != n*PanelWidth || len(X) != n*k || len(ZT) != k*PanelWidth {
		panic(fmt.Sprintf("mat: panel distance lengths D %d X %d ZT %d want %d, %d, %d",
			len(D), len(X), len(ZT), n*PanelWidth, n*k, k*PanelWidth))
	}
	sqDistPanelAVX2(&D[0], &X[0], &ZT[0], n, k)
}

//go:noescape
func solveLowerPanelAVX2(l *float64, n int, p *float64)

//go:noescape
func sqDistPanelAVX2(d, x, zt *float64, n, k int)

//go:build !amd64

package mat

// hasAVX2 is false off amd64: every panel runs the Go kernels.
const hasAVX2 = false

func solveLowerPanelAsm(l []float64, n int, P []float64) {
	panic("mat: no assembly panel kernels on this architecture")
}

func sqDistPanelAsm(D, X, ZT []float64, n, k int) {
	panic("mat: no assembly panel kernels on this architecture")
}

//go:build !amd64

package mat

// Off amd64 every panel runs the Go kernels.
const (
	hasAVX2      = false
	hasFMA       = false
	useExpKernel = false
)

func solveLowerPanelAsm(l []float64, n int, P, vv []float64) {
	panic("mat: no assembly panel kernels on this architecture")
}

func cholColAsm(w []float64, n, j int) {
	panic("mat: no assembly column kernel on this architecture")
}

func sqDistPanelAsm(D, X, ZT []float64, n, k int) {
	panic("mat: no assembly panel kernels on this architecture")
}

func expRowsAsm(P []float64, denom, hi float64, weight, scale, sums []float64) int {
	panic("mat: no assembly exp kernel on this architecture")
}

//go:build !amd64

package archsplit

const hasKernel = false

func scaleKernel(v []float64, a float64) {
	panic("no kernel on this architecture")
}

// Package archsplit splits one function across an architecture pair,
// as a package with assembly kernels does: panel_amd64.go and its
// !amd64 twin declare the same names, and only the pair member the build
// constraints select may load.
package archsplit

// Scale multiplies every entry of v by a.
func Scale(v []float64, a float64) {
	if hasKernel {
		scaleKernel(v, a)
		return
	}
	for i := range v {
		v[i] *= a
	}
}

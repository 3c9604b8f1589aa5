package archsplit

const hasKernel = true

func scaleKernel(v []float64, a float64) {
	for i := range v {
		v[i] = v[i] * a
	}
}

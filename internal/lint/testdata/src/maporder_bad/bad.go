// Corpus: maporder must fire on map iterations that emit order-dependent
// output or pick an arg-max, with no key sort (loaded as internal/campaign).
package badmap

import (
	"fmt"
	"io"
)

func CollectNoSort(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	return keys
}

func RenderUnsorted(w io.Writer, m map[string]float64) {
	for k, v := range m {
		fmt.Fprintf(w, "%s=%g\n", k, v)
	}
}

func StreamUnsorted(m map[int]bool, ch chan<- int) {
	for k := range m {
		ch <- k
	}
}

func ArgmaxUnsorted(m map[string]float64) string {
	best, arg := -1.0, ""
	for k, v := range m {
		if v > best {
			best, arg = v, k
		}
	}
	return arg
}

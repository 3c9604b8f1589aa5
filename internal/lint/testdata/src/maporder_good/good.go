// Corpus: maporder must stay silent on the collect-then-sort idiom, on an
// arg-max over sorted keys and on order-independent aggregation (loaded as
// internal/campaign).
package goodmap

import (
	"fmt"
	"io"
	"sort"
)

func CollectSorted(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func RenderSorted(w io.Writer, m map[string]float64) {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "%s=%g\n", k, m[k])
	}
}

func Sum(m map[string]float64) float64 {
	var s float64
	for _, v := range m {
		s += v
	}
	return s
}

func Invert(m map[string]int) map[int]string {
	out := make(map[int]string, len(m))
	for k, v := range m {
		out[v] = k
	}
	return out
}

func LocalOnly(m map[string][]int) int {
	n := 0
	for _, vs := range m {
		var evens []int
		evens = append(evens, vs...)
		n += len(evens)
	}
	return n
}

func ArgmaxSorted(m map[string]float64) string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	best, arg := -1.0, ""
	for _, k := range keys {
		if m[k] > best {
			best, arg = m[k], k
		}
	}
	return arg
}

func CountAbove(m map[string]float64, t float64) int {
	n := 0
	for _, v := range m {
		if v > t {
			n++
		}
	}
	return n
}

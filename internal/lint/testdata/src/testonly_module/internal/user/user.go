// Package user refers to core from a non-test file of another package,
// through generic instantiations among others.
package user

import "lintcorpus/internal/core"

var _ core.Sink

func Run() int {
	b := core.Box[int]{V: core.CrossPkg()}
	xs := core.Map([]int{b.V}, func(v int) int { return v + 1 })
	return core.Map[int](xs, func(v int) int { return 2 * v })[0]
}

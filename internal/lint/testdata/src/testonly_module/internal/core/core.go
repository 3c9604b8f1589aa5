// Corpus: a module whose packages exercise testonly. Each exported
// identifier here is used by a non-test file, or only by core_test.go.
package core

// OnlyTest, OnlyTestType, OnlyTestVar and OnlyTestConst are used only by
// core_test.go: one finding each.
func OnlyTest() int { return helper() }

type OnlyTestType struct{}

var OnlyTestVar = 1

const OnlyTestConst = 2

// SamePkg is used by helper, in this package.
func SamePkg() int { return 3 }

func helper() int { return SamePkg() }

// CrossPkg is called from internal/user.
func CrossPkg() int { return 4 }

// Map and Box are generic; internal/user uses only their instantiations.
func Map[T any](xs []T, f func(T) T) []T {
	out := make([]T, len(xs))
	for i, x := range xs {
		out[i] = f(x)
	}
	return out
}

type Box[T any] struct{ V T }

// Sink is used by internal/user. Its method Drop is used by no file at
// all, but methods are out of scope.
type Sink struct{}

func (Sink) Drop(int) {}

// Allowed is used only by core_test.go, under a reasoned allow comment.
//
//pawsvet:allow testonly -- corpus: an allow comment silences the finding
func Allowed() int { return 5 }

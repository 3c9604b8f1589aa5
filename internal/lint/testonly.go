package lint

import (
	"fmt"
	"go/types"
	"strings"
)

// checkTestOnly flags the package-level exported funcs, types, vars and
// consts of an internal/ package that no non-test file of the module
// refers to: API that only its own tests keep alive. Such code is either
// dead, and goes, or a test helper, and moves into a _test.go file.
//
// The references are the module-wide set LoadModule builds, so a
// package's findings do not depend on which packages pawsvet reports on.
// A package loaded on its own has no such set, and the check stays silent
// on it. Test-helper packages (named *test, like mat/exptest) exist for
// tests and are exempt. Methods are out of scope: a method can be needed
// only to satisfy an interface, which uses alone cannot show (gob calls
// GobEncode by reflection, and nothing names it).
func checkTestOnly(pkg *Package) []Finding {
	if pkg.refs == nil || pkg.Types == nil || !underAny(pkg.Rel, []string{"internal"}) ||
		strings.HasSuffix(pkg.Types.Name(), "test") {
		return nil
	}
	var out []Finding
	scope := pkg.Types.Scope()
	for _, name := range scope.Names() {
		obj := scope.Lookup(name)
		if !obj.Exported() || pkg.refs[obj] {
			continue
		}
		kind := "var"
		switch obj.(type) {
		case *types.Func:
			kind = "func"
		case *types.TypeName:
			kind = "type"
		case *types.Const:
			kind = "const"
		}
		out = append(out, pkg.finding(obj.Pos(), "testonly",
			fmt.Sprintf("exported %s %s.%s is used by no non-test file; delete it, or move it into a _test.go file if tests need it", kind, pkg.Types.Name(), name)))
	}
	return out
}

package lint

import (
	"go/ast"
)

// checkGoroutine flags bare `go` statements outside the sanctioned
// concurrency owners. The determinism contract survives parallelism only
// because all compute fan-out goes through internal/par's deterministic
// worker pool (results ordered by index, never by completion); lifecycle
// managers (internal/job, internal/env), the proxy and load layers
// (internal/gate, internal/load), and binaries own their concurrency
// explicitly. A goroutine anywhere else is either unsynchronized output
// waiting to happen or a worker-pool bypass.
func checkGoroutine(pkg *Package) []Finding {
	if goroutineSanctioned(pkg.Rel) {
		return nil
	}
	var out []Finding
	for _, file := range pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			if g, ok := n.(*ast.GoStmt); ok {
				out = append(out, pkg.finding(g.Pos(), "goroutine",
					"bare go statement outside the sanctioned concurrency owners (internal/par, internal/job, internal/env, internal/gate, internal/load, cmd); fan out through par.MapErrCtx or move ownership"))
			}
			return true
		})
	}
	return out
}

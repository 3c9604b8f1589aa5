// Package lint is the pawsvet analyzer suite: static checks for the
// repository's determinism and hygiene invariants, built only on the
// standard library's go/ast, go/parser, go/token and go/types (the module
// has zero dependencies and stays that way).
//
// The system's core contract — byte-identical simulate/campaign/env output
// at any worker count, with CRN-paired policy deltas — is easy to break
// silently: one unsorted map iteration feeding an io.Writer, one stray
// time.Now() in a compute path, one goroutine spawned outside the
// deterministic worker pool. Example-based tests only notice when a golden
// file happens to cover the broken path; these analyzers check the whole
// tree mechanically.
//
// # Checks
//
//   - wallclock: calls to time.Now/Since/Sleep in deterministic-compute
//     packages. Injected clock hooks (a `now func() time.Time` field
//     defaulting to the time.Now *value*, as in env.ManagerConfig) are
//     exempt by construction: only calls are flagged, never references.
//   - globalrand: calls to math/rand's package-level functions (the shared
//     global source) anywhere; plus rand.New/rand.NewSource in
//     deterministic-compute packages, where streams must derive from
//     internal/rng instead.
//   - maporder: a `range` over a map that appends to a slice declared
//     outside the loop, writes to an io.Writer, sends on a channel, or
//     keeps its key or value in an outer variable under an ordering
//     comparison (an arg-max), in a function with no key sort — the
//     classic determinism killer.
//   - goroutine: bare `go` statements outside the sanctioned concurrency
//     owners (internal/par, internal/job, internal/env, internal/gate,
//     internal/load, and cmd/examples binaries).
//   - errenvelope: handlers in internal/serve and internal/gate producing
//     non-2xx responses via http.Error or a constant non-2xx WriteHeader
//     instead of the structured {"error":{code,message,trace_id}} envelope.
//   - testonly: package-level exported funcs, types, vars and consts of
//     internal/ packages that no non-test file of the module refers to —
//     API that only tests keep alive, to delete or move into a _test.go
//     file. References come from the whole module (cmd/pawsbench, its own
//     module, included), so the findings do not depend on which packages
//     are reported on. Test-helper packages named *test are exempt.
//     Methods are left out: a method may exist only to satisfy an
//     interface, gob's reflective GobEncode among them, and uses alone
//     cannot show that.
//
// Test files (*_test.go) and testdata directories are not analyzed: the
// checks target production code paths, and a use in a test file does not
// count as a reference for testonly.
//
// # Suppressions
//
// A finding is silenced with an inline comment on the same line or the
// line directly above, and the reason is mandatory:
//
//	//pawsvet:allow <check> -- <reason>
//
// An allow comment with a missing reason or an unknown check name is
// itself reported (check "suppress"), so suppressions cannot rot into
// unreviewed blanket waivers.
package lint

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// Finding is one analyzer hit, rendered vet-style as
// "file:line: check: message".
type Finding struct {
	// File is the path of the offending file, relative to the module root.
	File string `json:"file"`
	Line int    `json:"line"`
	Col  int    `json:"col"`
	// Check names the analyzer that fired (or "suppress" for malformed
	// allow comments).
	Check   string `json:"check"`
	Message string `json:"message"`
	// Package is the offending package's module-relative directory
	// ("internal/plan"; "" for the module root package).
	Package string `json:"package"`
}

// String renders the finding in the vet-style text format.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d: %s: %s", f.File, f.Line, f.Check, f.Message)
}

// Check is one registered analyzer.
type Check struct {
	// Name is the identifier used in output and in allow comments.
	Name string
	// Doc is a one-line description (pawsvet -list).
	Doc string
	// run analyzes one typechecked package.
	run func(*Package) []Finding
}

// Checks returns the full analyzer registry, in stable order.
func Checks() []Check {
	return []Check{
		{"wallclock", "time.Now/Since/Sleep calls in deterministic-compute packages (inject a now hook instead)", checkWallclock},
		{"globalrand", "global math/rand functions anywhere; rand.New/NewSource in compute packages (derive from internal/rng)", checkGlobalRand},
		{"maporder", "map iteration emitting order-dependent output (append to outer slice, io.Writer, channel send, arg-max into an outer variable) without a key sort", checkMapOrder},
		{"goroutine", "bare go statements outside the sanctioned concurrency owners (internal/par, job, env, gate, load, cmd)", checkGoroutine},
		{"errenvelope", "serve/gate handlers writing non-2xx responses without the structured error envelope", checkErrEnvelope},
		{"testonly", "exported package-level identifiers of internal/ packages that no non-test file uses (not methods: interface satisfaction, gob's GobEncode included, is invisible to uses)", checkTestOnly},
	}
}

// checkNames returns the set of valid check names (allow-comment
// validation).
func checkNames() map[string]bool {
	names := map[string]bool{}
	for _, c := range Checks() {
		names[c.Name] = true
	}
	return names
}

// Run executes the given checks over the packages, applies allow-comment
// suppressions, folds in malformed-suppression findings, and returns the
// result sorted by (file, line, col, check).
func Run(pkgs []*Package, checks []Check) []Finding {
	var out []Finding
	for _, pkg := range pkgs {
		sup := collectSuppressions(pkg)
		for _, c := range checks {
			for _, f := range c.run(pkg) {
				if !sup.covers(f) {
					out = append(out, f)
				}
			}
		}
		out = append(out, sup.malformed...)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Check < b.Check
	})
	return out
}

// WriteText renders findings one per line in the vet-style format.
func WriteText(w io.Writer, findings []Finding) {
	for _, f := range findings {
		fmt.Fprintln(w, f.String())
	}
}

// WriteJSON renders findings as a JSON array (pawsvet -json). An empty
// set renders as [] rather than null so consumers can always range.
func WriteJSON(w io.Writer, findings []Finding) error {
	if findings == nil {
		findings = []Finding{}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(findings)
}

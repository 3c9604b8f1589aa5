package lint

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// corpus pairs each testdata/src directory with the module-relative
// package directory it is loaded as — which is what decides its
// classification, exactly like a real package's location would. A
// directory holding a go.mod is instead loaded whole with LoadModule, its
// packages classified by their own paths (rel is unused).
var corpus = []struct{ dir, rel string }{
	{"wallclock_bad", "internal/env"},
	{"wallclock_good", "internal/env"},
	{"globalrand_bad", "internal/ml"},
	{"globalrand_good", "internal/load"},
	{"maporder_bad", "internal/campaign"},
	{"maporder_good", "internal/campaign"},
	{"goroutine_bad", "internal/stats"},
	{"goroutine_good", "internal/par"},
	{"errenvelope_bad", "internal/serve"},
	{"errenvelope_good", "internal/serve"},
	{"suppress_bad", "internal/env"},
	{"suppress_good", "internal/env"},
	{"buildtags_good", "internal/mat"},
	{"testonly_module", ""},
}

// runCorpus loads one corpus dir and returns its findings.
func runCorpus(t *testing.T, dir, rel string) []Finding {
	t.Helper()
	path := filepath.Join("testdata", "src", dir)
	if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
		return Run(loadCorpusModule(t, path).Pkgs, Checks())
	}
	pkg, err := LoadDir(path, rel)
	if err != nil {
		t.Fatalf("LoadDir(%s): %v", dir, err)
	}
	if pkg.Types == nil {
		t.Fatalf("LoadDir(%s): no type information", dir)
	}
	if len(pkg.TypeErrors) > 0 {
		t.Fatalf("LoadDir(%s): type errors %v", dir, pkg.TypeErrors)
	}
	return Run([]*Package{pkg}, Checks())
}

// loadCorpusModule loads a corpus module and fails the test unless every
// package typechecks.
func loadCorpusModule(t *testing.T, path string) *Module {
	t.Helper()
	mod, err := LoadModule(path)
	if err != nil {
		t.Fatalf("LoadModule(%s): %v", path, err)
	}
	for _, pkg := range mod.Pkgs {
		if len(pkg.TypeErrors) > 0 {
			t.Fatalf("LoadModule(%s): package %q: type errors %v", path, pkg.Rel, pkg.TypeErrors)
		}
	}
	return mod
}

// TestCorpusGolden compares every corpus directory's findings against
// its golden expectation in testdata/expect/<dir>.txt (an empty file
// means the case must be clean). Regenerate with -update.
var update = os.Getenv("PAWSVET_UPDATE") == "1"

func TestCorpusGolden(t *testing.T) {
	for _, c := range corpus {
		t.Run(c.dir, func(t *testing.T) {
			var buf bytes.Buffer
			WriteText(&buf, runCorpus(t, c.dir, c.rel))
			got := buf.String()
			golden := filepath.Join("testdata", "expect", c.dir+".txt")
			if update {
				if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			wantBytes, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("missing golden file (run with PAWSVET_UPDATE=1 to create): %v", err)
			}
			if want := string(wantBytes); got != want {
				t.Errorf("findings mismatch for %s:\n--- got ---\n%s--- want ---\n%s", c.dir, got, want)
			}
		})
	}
}

// TestEveryCheckFires proves each registered check (and the suppress
// meta-check) has at least one corpus case that triggers it — so a
// check can't be deleted or neutered without a test failing.
func TestEveryCheckFires(t *testing.T) {
	fired := map[string]bool{}
	for _, c := range corpus {
		for _, f := range runCorpus(t, c.dir, c.rel) {
			fired[f.Check] = true
		}
	}
	for _, c := range Checks() {
		if !fired[c.Name] {
			t.Errorf("check %q fires on no corpus case", c.Name)
		}
	}
	if !fired["suppress"] {
		t.Error("malformed-suppression reporting fires on no corpus case")
	}
}

// TestSuppressionSemantics nails the allow-comment contract: a
// well-formed comment silences exactly its named check, a missing
// reason or unknown check name silences nothing and is itself reported.
func TestSuppressionSemantics(t *testing.T) {
	good := runCorpus(t, "suppress_good", "internal/env")
	if len(good) != 0 {
		t.Errorf("suppress_good: want 0 findings, got %v", good)
	}

	bad := runCorpus(t, "suppress_bad", "internal/env")
	counts := map[string]int{}
	for _, f := range bad {
		counts[f.Check]++
	}
	if counts["suppress"] != 2 {
		t.Errorf("suppress_bad: want 2 suppress findings (missing reason, unknown check), got %d: %v", counts["suppress"], bad)
	}
	if counts["wallclock"] != 1 {
		t.Errorf("suppress_bad: reasonless allow must not silence wallclock; findings: %v", bad)
	}
	if counts["globalrand"] != 1 {
		t.Errorf("suppress_bad: unknown-check allow must not silence globalrand; findings: %v", bad)
	}
}

// TestTestOnlyIgnoresSelection pins that testonly reads the module-wide
// reference set: a package run on its own gets exactly the findings it
// gets in a run over the whole module, so `pawsvet ./internal/core` and
// `pawsvet ./...` agree on it.
func TestTestOnlyIgnoresSelection(t *testing.T) {
	mod := loadCorpusModule(t, filepath.Join("testdata", "src", "testonly_module"))
	whole := map[string][]Finding{}
	for _, f := range Run(mod.Pkgs, Checks()) {
		whole[f.Package] = append(whole[f.Package], f)
	}
	if len(whole["internal/core"]) == 0 {
		t.Fatal("testonly reports nothing for internal/core over the whole module")
	}
	for _, pkg := range mod.Pkgs {
		alone := Run([]*Package{pkg}, Checks())
		if !reflect.DeepEqual(alone, whole[pkg.Rel]) {
			t.Errorf("package %q: alone %v, within the module %v", pkg.Rel, alone, whole[pkg.Rel])
		}
	}
}

// TestSelfLint asserts the whole repository is pawsvet-clean: every
// finding in the tree has either been fixed or carries a reasoned
// suppression. This is the test that keeps the gate meaningful.
func TestSelfLint(t *testing.T) {
	if testing.Short() {
		t.Skip("typechecks the whole module; skipped in -short")
	}
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	mod, err := LoadModule(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(mod.Pkgs) < 20 {
		t.Fatalf("implausibly few packages loaded (%d) — loader regression?", len(mod.Pkgs))
	}
	// A package that does not typecheck leaves the type-based checks
	// with partial information, and they go quiet on it.
	for _, pkg := range mod.Pkgs {
		for _, err := range pkg.TypeErrors {
			t.Errorf("package %q: type error: %v", pkg.Rel, err)
		}
	}
	findings := Run(mod.Pkgs, Checks())
	if len(findings) != 0 {
		var buf bytes.Buffer
		WriteText(&buf, findings)
		t.Errorf("repository is not pawsvet-clean:\n%s", buf.String())
	}
}

// TestClassify pins the package classification table.
func TestClassify(t *testing.T) {
	cases := []struct {
		rel  string
		want Class
	}{
		{"internal/env", ClassCompute},
		{"internal/ml/gp", ClassCompute},
		{"internal/rng", ClassCompute},
		{"internal/serve", ClassServing},
		{"internal/load", ClassServing},
		{"cmd/pawsd", ClassMain},
		{"examples/quickstart", ClassMain},
		{"", ClassOther},
		{"internal/par", ClassOther},
		{"internal/lint", ClassOther},
	}
	for _, c := range cases {
		if got := classify(c.rel); got != c.want {
			t.Errorf("classify(%q) = %v, want %v", c.rel, got, c.want)
		}
	}
	if !goroutineSanctioned("internal/par") || !goroutineSanctioned("cmd/pawsd") {
		t.Error("par and cmd must be goroutine-sanctioned")
	}
	if goroutineSanctioned("internal/campaign") || goroutineSanctioned("") {
		t.Error("campaign and the root package must not be goroutine-sanctioned")
	}
	if !envelopeChecked("internal/serve") || !envelopeChecked("internal/gate") || envelopeChecked("internal/obs") {
		t.Error("errenvelope scope must be exactly serve and gate")
	}
}

// TestWriteJSON pins the machine-readable output shape.
func TestWriteJSON(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteJSON(&buf, nil); err != nil {
		t.Fatal(err)
	}
	if got := strings.TrimSpace(buf.String()); got != "[]" {
		t.Errorf("empty findings must render as [], got %q", got)
	}
	buf.Reset()
	fs := []Finding{{File: "a.go", Line: 3, Col: 2, Check: "wallclock", Message: "m", Package: "internal/env"}}
	if err := WriteJSON(&buf, fs); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"file": "a.go"`, `"check": "wallclock"`, `"package": "internal/env"`} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("JSON output missing %s:\n%s", want, buf.String())
		}
	}
}

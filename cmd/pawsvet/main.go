// Command pawsvet runs the repository's determinism & hygiene analyzer
// suite (internal/lint) over the module containing the working
// directory, with vet-style output and a nonzero exit on findings.
//
// Usage:
//
//	pawsvet [-json] [-checks wallclock,maporder] [-list] [patterns...]
//
// Patterns select packages by module-relative directory: "./..." (the
// default) analyzes the whole module, "./internal/plan" one package,
// "./internal/ml/..." a subtree. Test files and testdata are never
// analyzed.
//
// Exit status: 0 clean, 1 findings, 2 usage or load error.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"paws/internal/lint"
)

func main() {
	jsonOut := flag.Bool("json", false, "emit findings as a JSON array instead of vet-style text")
	checksFlag := flag.String("checks", "", "comma-separated subset of checks to run (default: all)")
	list := flag.Bool("list", false, "list registered checks and exit")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: pawsvet [-json] [-checks names] [-list] [patterns...]\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	os.Exit(run(*jsonOut, *checksFlag, *list, flag.Args()))
}

func run(jsonOut bool, checksFlag string, list bool, patterns []string) int {
	if list {
		for _, c := range lint.Checks() {
			fmt.Printf("%-12s %s\n", c.Name, c.Doc)
		}
		return 0
	}

	checks := lint.Checks()
	if checksFlag != "" {
		byName := map[string]lint.Check{}
		for _, c := range checks {
			byName[c.Name] = c
		}
		checks = nil
		for _, name := range strings.Split(checksFlag, ",") {
			name = strings.TrimSpace(name)
			c, ok := byName[name]
			if !ok {
				fmt.Fprintf(os.Stderr, "pawsvet: unknown check %q (see pawsvet -list)\n", name)
				return 2
			}
			checks = append(checks, c)
		}
	}

	root, err := lint.FindModuleRoot(".")
	if err != nil {
		fmt.Fprintf(os.Stderr, "pawsvet: %v\n", err)
		return 2
	}
	mod, err := lint.LoadModule(root)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pawsvet: %v\n", err)
		return 2
	}

	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := selectPackages(mod, patterns)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pawsvet: %v\n", err)
		return 2
	}

	// A package that does not typecheck leaves the type-based checks with
	// partial information, so its findings may be incomplete.
	for _, pkg := range pkgs {
		for _, err := range pkg.TypeErrors {
			fmt.Fprintf(os.Stderr, "pawsvet: type error (findings may be incomplete): %v\n", err)
		}
	}
	findings := lint.Run(pkgs, checks)
	if jsonOut {
		if err := lint.WriteJSON(os.Stdout, findings); err != nil {
			fmt.Fprintf(os.Stderr, "pawsvet: %v\n", err)
			return 2
		}
	} else {
		lint.WriteText(os.Stdout, findings)
	}
	if len(findings) > 0 {
		return 1
	}
	return 0
}

// selectPackages filters the module's packages by the command-line
// patterns ("./...", "dir", "dir/...").
func selectPackages(mod *lint.Module, patterns []string) ([]*lint.Package, error) {
	match := func(rel string) bool {
		for _, pat := range patterns {
			pat = strings.TrimPrefix(strings.TrimSpace(pat), "./")
			pat = strings.TrimSuffix(pat, "/")
			if pat == "..." || pat == "" {
				return true
			}
			if prefix, ok := strings.CutSuffix(pat, "/..."); ok {
				if rel == prefix || strings.HasPrefix(rel, prefix+"/") {
					return true
				}
				continue
			}
			if rel == pat {
				return true
			}
		}
		return false
	}
	var out []*lint.Package
	for _, pkg := range mod.Pkgs {
		if match(pkg.Rel) {
			out = append(out, pkg)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no packages match %v", patterns)
	}
	return out, nil
}

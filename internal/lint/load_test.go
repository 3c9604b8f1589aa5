package lint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"strings"
)

// LoadDir parses and typechecks one directory as a standalone package
// with the given module-relative directory (which decides its
// classification), skipping the files the host's build constraints
// exclude. Imports resolve against the standard library only — the
// corpus-test entry point.
func LoadDir(dir, rel string) (*Package, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	entries, err := os.ReadDir(abs)
	if err != nil {
		return nil, err
	}
	pkg := &Package{Rel: rel, Dir: abs, Class: classify(rel), Fset: fset, root: abs}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") || strings.HasSuffix(e.Name(), "_test.go") {
			continue
		}
		ok, err := build.Default.MatchFile(abs, e.Name())
		if err != nil {
			return nil, err
		}
		if !ok {
			continue
		}
		file, err := parser.ParseFile(fset, filepath.Join(abs, e.Name()), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		pkg.Files = append(pkg.Files, file)
	}
	if len(pkg.Files) == 0 {
		return nil, fmt.Errorf("lint: no Go files in %s", dir)
	}
	cfg := types.Config{
		Importer: newStdImporter(fset),
		Error:    func(err error) { pkg.TypeErrors = append(pkg.TypeErrors, err) },
	}
	pkg.Info = &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Uses:       map[*ast.Ident]types.Object{},
		Defs:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	pkg.Types, _ = cfg.Check("lintcorpus/"+rel, fset, pkg.Files, pkg.Info)
	return pkg, nil
}

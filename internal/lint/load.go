package lint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one parsed and typechecked package under analysis.
type Package struct {
	// Rel is the module-relative directory ("internal/plan"; "" for the
	// module root package).
	Rel string
	// Dir is the absolute directory.
	Dir string
	// Class is the determinism classification (see classify.go).
	Class Class
	// Fset positions all Files.
	Fset *token.FileSet
	// Files are the package's non-test source files that the host's
	// build constraints select (go/build's default context).
	Files []*ast.File
	// Types and Info carry the go/types results. Info may be partial if
	// the package did not typecheck cleanly; checks degrade to silence,
	// never to panics, on missing type information, so TypeErrors says
	// when that happened.
	Types *types.Package
	Info  *types.Info
	// TypeErrors are the typechecker's errors, in the order it found them.
	TypeErrors []error

	root string // module root, for rendering file paths
	// refs is the module's reference set, shared by every package
	// LoadModule returns: each object that some loaded (non-test) file
	// refers to. go/types records a use of a generic func or type as the
	// generic object itself, so an instantiation counts as a use of it.
	// The testonly check reads the set; it is nil for a package loaded on
	// its own.
	refs map[types.Object]bool
}

// finding builds a Finding at a token position, rendering the file path
// relative to the module root.
func (p *Package) finding(pos token.Pos, check, msg string) Finding {
	position := p.Fset.Position(pos)
	file := position.Filename
	if rel, err := filepath.Rel(p.root, file); err == nil && !strings.HasPrefix(rel, "..") {
		file = rel
	}
	return Finding{
		File:    filepath.ToSlash(file),
		Line:    position.Line,
		Col:     position.Column,
		Check:   check,
		Message: msg,
		Package: p.Rel,
	}
}

// Module is a loaded module tree.
type Module struct {
	// Root is the absolute directory containing go.mod.
	Root string
	// Path is the module path declared in go.mod.
	Path string
	// Pkgs are the module's packages in import-dependency order.
	Pkgs []*Package
}

// FindModuleRoot walks up from dir to the nearest directory containing
// go.mod.
func FindModuleRoot(dir string) (string, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(abs, "go.mod")); err == nil {
			return abs, nil
		}
		parent := filepath.Dir(abs)
		if parent == abs {
			return "", fmt.Errorf("lint: no go.mod found above %s", dir)
		}
		abs = parent
	}
}

// modulePath extracts the module path from a go.mod file.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`), nil
		}
	}
	return "", fmt.Errorf("lint: no module directive in %s", gomod)
}

// LoadModule parses and typechecks every package of the module rooted at
// root (skipping *_test.go files, files the host's build constraints
// exclude, testdata, and hidden directories), and gives the packages one
// reference set built from all of their types.Info.Uses. Packages that
// fail to typecheck are still returned, with partial type information and
// their TypeErrors; parse failures abort the load.
func LoadModule(root string) (*Module, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	path, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()

	// Discover and parse package directories.
	var rels []string
	byRel := map[string]*Package{}
	err = filepath.WalkDir(root, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if p != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
				name == "testdata" || name == "vendor") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		dir := filepath.Dir(p)
		if ok, err := build.Default.MatchFile(dir, d.Name()); err != nil || !ok {
			return err
		}
		rel, err := filepath.Rel(root, dir)
		if err != nil {
			return err
		}
		if rel == "." {
			rel = ""
		}
		rel = filepath.ToSlash(rel)
		pkg := byRel[rel]
		if pkg == nil {
			pkg = &Package{Rel: rel, Dir: dir, Class: classify(rel), Fset: fset, root: root}
			byRel[rel] = pkg
			rels = append(rels, rel)
		}
		file, err := parser.ParseFile(fset, p, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return fmt.Errorf("lint: %w", err)
		}
		pkg.Files = append(pkg.Files, file)
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(rels)

	// Topological order over module-internal imports, so each package's
	// dependencies are typechecked before it.
	importRel := func(imp string) (string, bool) {
		if imp == path {
			return "", true
		}
		if rest, ok := strings.CutPrefix(imp, path+"/"); ok {
			return rest, true
		}
		return "", false
	}
	var order []string
	state := map[string]int{} // 0 unvisited, 1 visiting, 2 done
	var visit func(rel string) error
	visit = func(rel string) error {
		switch state[rel] {
		case 1:
			return fmt.Errorf("lint: import cycle through %q", rel)
		case 2:
			return nil
		}
		state[rel] = 1
		pkg := byRel[rel]
		for _, f := range pkg.Files {
			for _, imp := range f.Imports {
				ipath := strings.Trim(imp.Path.Value, `"`)
				if dep, ok := importRel(ipath); ok {
					if byRel[dep] != nil {
						if err := visit(dep); err != nil {
							return err
						}
					}
				}
			}
		}
		state[rel] = 2
		order = append(order, rel)
		return nil
	}
	for _, rel := range rels {
		if err := visit(rel); err != nil {
			return nil, err
		}
	}

	// Typecheck in dependency order. Module-internal imports resolve to
	// the packages just checked; the standard library comes from the
	// compiler's export data (with a from-source fallback).
	imp := newStdImporter(fset)
	checked := map[string]*types.Package{}
	mod := &Module{Root: root, Path: path}
	for _, rel := range order {
		pkg := byRel[rel]
		ipath := path
		if rel != "" {
			ipath = path + "/" + rel
		}
		cfg := types.Config{
			Importer: importerFunc(func(p string) (*types.Package, error) {
				if dep, ok := importRel(p); ok {
					if tp := checked[dep]; tp != nil {
						return tp, nil
					}
					return nil, fmt.Errorf("lint: internal package %q not loaded", p)
				}
				return imp.Import(p)
			}),
			Error: func(err error) { pkg.TypeErrors = append(pkg.TypeErrors, err) },
		}
		pkg.Info = &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Uses:       map[*ast.Ident]types.Object{},
			Defs:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
		}
		tp, _ := cfg.Check(ipath, fset, pkg.Files, pkg.Info)
		pkg.Types = tp
		checked[rel] = tp
		mod.Pkgs = append(mod.Pkgs, pkg)
	}

	refs := map[types.Object]bool{}
	for _, pkg := range mod.Pkgs {
		for _, obj := range pkg.Info.Uses {
			refs[obj] = true
		}
	}
	for _, pkg := range mod.Pkgs {
		pkg.refs = refs
	}
	return mod, nil
}

// importerFunc adapts a function to types.Importer.
type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// stdImporter resolves standard-library imports: compiler export data
// first (fast), from-source as a fallback (robust across toolchain
// layouts). Results are cached per load.
type stdImporter struct {
	fset  *token.FileSet
	gc    types.Importer
	src   types.Importer
	cache map[string]*types.Package
}

func newStdImporter(fset *token.FileSet) *stdImporter {
	return &stdImporter{fset: fset, gc: importer.ForCompiler(fset, "gc", nil), cache: map[string]*types.Package{}}
}

func (s *stdImporter) Import(path string) (*types.Package, error) {
	if p := s.cache[path]; p != nil {
		return p, nil
	}
	p, err := s.gc.Import(path)
	if err != nil {
		if s.src == nil {
			s.src = importer.ForCompiler(s.fset, "source", nil)
		}
		p, err = s.src.Import(path)
	}
	if err != nil {
		return nil, err
	}
	s.cache[path] = p
	return p, nil
}

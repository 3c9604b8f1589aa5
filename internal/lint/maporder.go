package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// checkMapOrder flags `range` statements over maps whose body emits
// order-dependent output — appends to a slice declared outside the loop,
// writes to an io.Writer (which includes http.ResponseWriter and
// strings.Builder), sends on a channel, or keeps the range key or value
// in a variable declared outside the loop under an ordering comparison
// (an arg-max or arg-min, whose winner on a tie is whichever entry came
// first) — in a function that performs no key sort. Go randomizes map
// iteration order per run, so any of these leaks scheduling noise into
// output that the determinism contract says is a pure function of the
// inputs.
//
// The standard collect-keys-then-sort idiom passes: the presence of any
// sort call (package sort, slices.Sort*, a .Sort() method, or a helper
// whose name starts with sort/Sort) anywhere in the same function
// exempts the whole function, and appends whose target is declared
// inside the loop body are invisible outside it.
// Aggregations that are order-independent by construction (summing into
// a scalar, writing into another map) are never flagged.
func checkMapOrder(pkg *Package) []Finding {
	var out []Finding
	eachFunc(pkg, func(fd *ast.FuncDecl) {
		if funcSorts(pkg.Info, fd) {
			return
		}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			rs, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			tv, ok := pkg.Info.Types[rs.X]
			if !ok || tv.Type == nil {
				return true
			}
			if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
				return true
			}
			if kind := emitKind(pkg.Info, rs); kind != "" {
				out = append(out, pkg.finding(rs.Pos(), "maporder",
					fmt.Sprintf("map iteration %s in %s with no key sort; iteration order is randomized per run — collect keys, sort, then emit", kind, funcName(fd))))
			}
			return true
		})
	})
	return out
}

// funcSorts reports whether the function contains any sort call.
func funcSorts(info *types.Info, fd *ast.FuncDecl) bool {
	found := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if path, name, ok := pkgCall(info, call); ok {
			if path == "sort" || (path == "slices" && strings.HasPrefix(name, "Sort")) {
				found = true
				return false
			}
		}
		switch fun := call.Fun.(type) {
		case *ast.SelectorExpr:
			if sortName(fun.Sel.Name) {
				found = true
				return false
			}
		case *ast.Ident:
			if sortName(fun.Name) {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// sortName reports whether a called function's name marks a key sort
// ("Sort", "sortByIdle", …).
func sortName(name string) bool {
	return strings.HasPrefix(name, "sort") || strings.HasPrefix(name, "Sort")
}

// emitKind classifies the first order-dependent emission inside a
// map-range body ("" when the body is order-safe).
func emitKind(info *types.Info, rs *ast.RangeStmt) string {
	kind := ""
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		if kind != "" {
			return false
		}
		switch n := n.(type) {
		case *ast.SendStmt:
			kind = "sends on a channel"
			return false
		case *ast.AssignStmt:
			for i, rhs := range n.Rhs {
				if !isAppendCall(info, rhs) || i >= len(n.Lhs) {
					continue
				}
				if id := rootIdent(n.Lhs[i]); id != nil && declaredOutside(info, id, rs) {
					kind = fmt.Sprintf("appends to %s (declared outside the loop)", id.Name)
					return false
				}
			}
		case *ast.CallExpr:
			if target := writerTarget(info, n); target != "" {
				kind = "writes to io.Writer " + target
				return false
			}
		case *ast.IfStmt:
			if !hasOrdering(n.Cond) {
				return true
			}
			if from, to := keepsRangeVar(info, rs, n); to != "" {
				kind = fmt.Sprintf("keeps %s in %s (declared outside the loop) under a comparison", from, to)
				return false
			}
		}
		return true
	})
	return kind
}

// hasOrdering reports whether e contains an ordering comparison
// (<, <=, >, >=).
func hasOrdering(e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if b, ok := n.(*ast.BinaryExpr); ok {
			switch b.Op {
			case token.LSS, token.LEQ, token.GTR, token.GEQ:
				found = true
			}
		}
		return !found
	})
	return found
}

// keepsRangeVar finds the first plain assignment in the if statement
// (either branch) that stores rs's key or value, as is, into a variable
// declared outside the loop, and returns the two names ("" when none).
func keepsRangeVar(info *types.Info, rs *ast.RangeStmt, ifs *ast.IfStmt) (from, to string) {
	rangeVars := map[types.Object]bool{}
	for _, e := range []ast.Expr{rs.Key, rs.Value} {
		if id, ok := e.(*ast.Ident); ok && info.ObjectOf(id) != nil {
			rangeVars[info.ObjectOf(id)] = true
		}
	}
	ast.Inspect(ifs, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if to != "" || !ok || as.Tok != token.ASSIGN || len(as.Lhs) != len(as.Rhs) {
			return to == ""
		}
		for i, rhs := range as.Rhs {
			src, ok := ast.Unparen(rhs).(*ast.Ident)
			if !ok || !rangeVars[info.ObjectOf(src)] {
				continue
			}
			if id := rootIdent(as.Lhs[i]); id != nil && declaredOutside(info, id, rs) {
				from, to = src.Name, id.Name
				return false
			}
		}
		return true
	})
	return from, to
}

// isAppendCall reports whether e is a call to the append builtin.
func isAppendCall(info *types.Info, e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := call.Fun.(*ast.Ident)
	if !ok || id.Name != "append" {
		return false
	}
	_, isBuiltin := info.Uses[id].(*types.Builtin)
	return isBuiltin
}

// rootIdent peels selectors, indexes, stars and parens down to the base
// identifier of an assignable expression.
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// declaredOutside reports whether the identifier's object is declared
// outside the range statement's extent (package-level objects and
// struct fields included). Missing type information resolves to false —
// silence over noise.
func declaredOutside(info *types.Info, id *ast.Ident, rs *ast.RangeStmt) bool {
	obj := info.ObjectOf(id)
	if obj == nil {
		return false
	}
	return obj.Pos() < rs.Pos() || obj.Pos() > rs.End()
}

// writerTarget reports the argument or receiver of a call that is typed
// as (or implements) io.Writer, "" if none.
func writerTarget(info *types.Info, call *ast.CallExpr) string {
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		if tv, ok := info.Types[sel.X]; ok && implementsWriter(tv.Type) {
			return exprLabel(sel.X)
		}
	}
	for _, arg := range call.Args {
		if tv, ok := info.Types[arg]; ok && implementsWriter(tv.Type) {
			return exprLabel(arg)
		}
	}
	return ""
}

// exprLabel renders a short display label for an expression.
func exprLabel(e ast.Expr) string {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		return exprLabel(x.X) + "." + x.Sel.Name
	case *ast.UnaryExpr:
		return exprLabel(x.X)
	default:
		return "argument"
	}
}

// Package stock provides lightweight reimplementations of the two stock
// go/analysis passes that `go vet` does not run and the multichecker
// would normally pull in from golang.org/x/tools — nilness and shadow.
// The container has no module proxy, so these cover the highest-value
// subset of each upstream pass with the same diagnostic vocabulary:
//
//   - shadow: an inner := redeclaring an outer variable of identical
//     type, where the outer one is still used afterwards — the classic
//     "err eaten by an if-scope" bug.
//   - nilness: dereferencing a variable inside the branch that just
//     proved it nil.
//
// Each is deliberately conservative: fewer checks than upstream, no
// false positives on this repo's idioms. lostcancel and copylocks are
// not here: `go vet`, which `make lint` and CI run first, owns them.
package stock

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/lint/analysis"
)

// ---------------------------------------------------------------- shadow

// Shadow flags an inner := that redeclares an outer variable of
// identical type when the outer variable is still used after the inner
// scope ends.
var Shadow = &analysis.Analyzer{
	Name: "shadow",
	Doc:  "flag shadowed variables whose outer declaration is used afterwards",
	Run:  runShadow,
}

func runShadow(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok || as.Tok != token.DEFINE {
				return true
			}
			for _, lhs := range as.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok || id.Name == "_" {
					continue
				}
				checkShadowDecl(pass, as, id)
			}
			return true
		})
	}
	return nil
}

// checkShadowDecl flags `x := ...` when it shadows an outer x of the
// same type that is still used after the inner scope ends. Two
// deliberate idioms are exempt: closure parameters (only := sites are
// considered at all, so subtest func(t *testing.T) never fires) and
// per-iteration copies whose right-hand side reads the outer variable
// (`x := x`).
func checkShadowDecl(pass *analysis.Pass, as *ast.AssignStmt, id *ast.Ident) {
	v, ok := pass.TypesInfo.Defs[id].(*types.Var)
	if !ok || v.Parent() == nil || v.Parent() == pass.Pkg.Scope() {
		return
	}
	inner := v.Parent()
	_, outerObj := inner.Parent().LookupParent(id.Name, id.Pos())
	outer, ok := outerObj.(*types.Var)
	if !ok || outer == v || outer.Parent() == pass.Pkg.Scope() {
		return // shadowing a package-level variable is out of scope here
	}
	if !types.Identical(outer.Type(), v.Type()) {
		return // deliberate re-typing, vet's shadow skips these too
	}
	for _, rhs := range as.Rhs {
		readsOuter := false
		ast.Inspect(rhs, func(n ast.Node) bool {
			if use, ok := n.(*ast.Ident); ok && pass.TypesInfo.Uses[use] == outer {
				readsOuter = true
			}
			return !readsOuter
		})
		if readsOuter {
			return // x := x style copy: shadowing is the point
		}
	}
	if !usedAfter(pass, outer, inner.End()) {
		return
	}
	pass.Reportf(id.Pos(),
		"declaration of %q shadows declaration at line %d; the outer variable is used after this scope ends",
		id.Name, pass.Fset.Position(outer.Pos()).Line)
}

func usedAfter(pass *analysis.Pass, obj types.Object, after token.Pos) bool {
	for id, used := range pass.TypesInfo.Uses {
		if used == obj && id.Pos() > after {
			return true
		}
	}
	return false
}

// ---------------------------------------------------------------- nilness

// Nilness flags dereferences of a variable inside the branch that just
// proved it nil.
var Nilness = &analysis.Analyzer{
	Name: "nilness",
	Doc:  "flag dereference of a variable inside its x == nil branch",
	Run:  runNilness,
}

func runNilness(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			ifs, ok := n.(*ast.IfStmt)
			if !ok {
				return true
			}
			obj := nilCheckedObj(pass, ifs.Cond)
			if obj == nil {
				return true
			}
			checkNilDeref(pass, ifs.Body, obj)
			return true
		})
	}
	return nil
}

// nilCheckedObj returns the object proven nil by cond (`x == nil` /
// `nil == x`), or nil.
func nilCheckedObj(pass *analysis.Pass, cond ast.Expr) types.Object {
	be, ok := ast.Unparen(cond).(*ast.BinaryExpr)
	if !ok || be.Op != token.EQL {
		return nil
	}
	x, y := ast.Unparen(be.X), ast.Unparen(be.Y)
	if isNilIdent(y) {
		// fallthrough with x
	} else if isNilIdent(x) {
		x = y
	} else {
		return nil
	}
	id, ok := x.(*ast.Ident)
	if !ok {
		return nil
	}
	obj := pass.TypesInfo.Uses[id]
	if obj == nil {
		return nil
	}
	// Only pointer-shaped things crash on deref.
	switch obj.Type().Underlying().(type) {
	case *types.Pointer, *types.Map, *types.Slice:
		return obj
	}
	return nil
}

func isNilIdent(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "nil"
}

func checkNilDeref(pass *analysis.Pass, body *ast.BlockStmt, obj types.Object) {
	reassigned := false
	ast.Inspect(body, func(n ast.Node) bool {
		if reassigned {
			return false
		}
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if id, ok := ast.Unparen(lhs).(*ast.Ident); ok && pass.TypesInfo.Uses[id] == obj {
					reassigned = true
					return false
				}
			}
		case *ast.SelectorExpr:
			if _, isPtr := obj.Type().Underlying().(*types.Pointer); !isPtr {
				return true
			}
			if id, ok := ast.Unparen(n.X).(*ast.Ident); ok && pass.TypesInfo.Uses[id] == obj {
				pass.Reportf(n.Pos(), "%s is nil on this path; this selector dereferences it", obj.Name())
			}
		case *ast.StarExpr:
			if id, ok := ast.Unparen(n.X).(*ast.Ident); ok && pass.TypesInfo.Uses[id] == obj {
				pass.Reportf(n.Pos(), "%s is nil on this path; this dereference crashes", obj.Name())
			}
		case *ast.IndexExpr:
			// Indexing a nil map reads fine; indexing a nil slice panics.
			if _, isSlice := obj.Type().Underlying().(*types.Slice); !isSlice {
				return true
			}
			if id, ok := ast.Unparen(n.X).(*ast.Ident); ok && pass.TypesInfo.Uses[id] == obj {
				pass.Reportf(n.Pos(), "%s is nil on this path; this index panics", obj.Name())
			}
		}
		return true
	})
}

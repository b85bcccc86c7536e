// Package nodeterm enforces the determinism contract of the simulation
// packages: a seeded run (simcheck.Replay, a faultnet scenario run twice,
// the experiments commit frontier) only reproduces when the code between
// a seed and its results never consults the wall clock, a global random
// source, or map iteration order. The rules:
//
//   - no time.Now / time.Since / time.Until / time.Sleep / time.Tick /
//     time.AfterFunc. Timeout guards (time.After, time.NewTimer in a
//     select) are exempt by design: a timer that only fires once the
//     system is already wedged shapes no replayed result.
//   - no package-level math/rand calls (rand.Intn, rand.Shuffle, ...);
//     seeded rand.New(rand.NewSource(seed)) streams are the idiom.
//   - no ranging over a map while appending to a slice declared outside
//     the loop, unless the slice is sorted later in the same block —
//     the shape that leaks map order into results.
//
// Test files are exempt (measuring wall time in a test is fine).
// Genuine wall-clock needs — elapsed-time reporting that never feeds
// back into execution — use the escape hatch, reason required:
//
//	start := time.Now() //lint:allow nodeterm elapsed is report-only
package nodeterm

import (
	"go/ast"
	"go/types"
	"path"
	"strings"

	"repro/internal/lint/analysis"
)

// Deterministic maps each covered import path to the file basename
// globs the contract applies to (nil means every non-test file). Tests
// may override this to point at fixtures.
var Deterministic = map[string][]string{
	"repro/internal/eventsim":    nil,
	"repro/internal/churn":       nil,
	"repro/internal/simcheck":    nil,
	"repro/internal/faultnet":    nil,
	"repro/internal/experiments": nil,
	"repro/internal/wire":        {"mem.go", "mem_*.go"},
}

// Analyzer is the nodeterm pass.
var Analyzer = &analysis.Analyzer{
	Name: "nodeterm",
	Doc:  "forbid wall-clock, global randomness and map-order dependence in deterministic packages",
	Run:  run,
}

// forbidden maps package path -> function name -> message.
var forbidden = map[string]map[string]string{
	"time": {
		"Now":       "time.Now reads the wall clock; deterministic code must take time from the harness (eventsim clock or logical sequence)",
		"Since":     "time.Since reads the wall clock; deterministic code must take time from the harness (eventsim clock or logical sequence)",
		"Until":     "time.Until reads the wall clock; deterministic code must take time from the harness (eventsim clock or logical sequence)",
		"Sleep":     "time.Sleep blocks on the wall clock; use the event-sim clock or an injected wire.Clock",
		"Tick":      "time.Tick fires on the wall clock; schedule through the event-sim clock instead",
		"AfterFunc": "time.AfterFunc fires on the wall clock; schedule through the event-sim clock instead",
	},
}

// randExempt lists the math/rand functions that are allowed: stream
// constructors, which are exactly how seeded determinism is built.
var randExempt = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	"NewPCG": true, "NewChaCha8": true,
}

func run(pass *analysis.Pass) error {
	globs, ok := Deterministic[pass.Pkg.Path()]
	if !ok {
		// External test packages share the package's contract.
		base := strings.TrimSuffix(pass.Pkg.Path(), "_test")
		if globs, ok = Deterministic[base]; !ok {
			return nil
		}
	}
	for _, f := range pass.Files {
		name := path.Base(pass.Fset.Position(f.Pos()).Filename)
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		if len(globs) > 0 && !matchAny(globs, name) {
			continue
		}
		checkFile(pass, f)
	}
	return nil
}

func matchAny(globs []string, name string) bool {
	for _, g := range globs {
		if ok, _ := path.Match(g, name); ok {
			return true
		}
	}
	return false
}

func checkFile(pass *analysis.Pass, f *ast.File) {
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			checkCall(pass, n)
		case *ast.BlockStmt:
			checkStmtList(pass, n.List)
		case *ast.CaseClause:
			checkStmtList(pass, n.Body)
		case *ast.CommClause:
			checkStmtList(pass, n.Body)
		}
		return true
	})
}

func checkCall(pass *analysis.Pass, call *ast.CallExpr) {
	fn := analysis.CalleeFunc(pass.TypesInfo, call)
	if fn == nil || fn.Pkg() == nil || fn.Type().(*types.Signature).Recv() != nil {
		return
	}
	pkg, name := fn.Pkg().Path(), fn.Name()
	if msgs, ok := forbidden[pkg]; ok {
		if msg, ok := msgs[name]; ok {
			pass.Reportf(call.Pos(), "%s", msg)
		}
		return
	}
	if (pkg == "math/rand" || pkg == "math/rand/v2") && !randExempt[name] {
		pass.Reportf(call.Pos(),
			"global math/rand.%s draws from a shared nondeterministic source; use a seeded rand.New(rand.NewSource(seed)) stream", name)
	}
}

// checkStmtList flags a `for range m { out = append(out, ...) }` over a
// map when out is declared outside the loop and no later statement in
// the same block sorts it.
func checkStmtList(pass *analysis.Pass, list []ast.Stmt) {
	for i, stmt := range list {
		rs, ok := stmt.(*ast.RangeStmt)
		if !ok {
			continue
		}
		tv, ok := pass.TypesInfo.Types[rs.X]
		if !ok {
			continue
		}
		if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
			continue
		}
		for _, target := range appendTargets(pass, rs) {
			if sortedLater(pass, list[i+1:], target) {
				continue
			}
			pass.Reportf(rs.Pos(),
				"map iteration appends to %q in nondeterministic order; sort the keys first or sort %q in this block afterwards",
				target.Name(), target.Name())
		}
	}
}

// appendTargets returns the objects of slices declared outside rs that
// the loop body appends to.
func appendTargets(pass *analysis.Pass, rs *ast.RangeStmt) []types.Object {
	var out []types.Object
	seen := map[types.Object]bool{}
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if fnID, isIdent := ast.Unparen(call.Fun).(*ast.Ident); !isIdent || fnID.Name != "append" {
			return true
		} else if _, isBuiltin := pass.TypesInfo.Uses[fnID].(*types.Builtin); !isBuiltin {
			return true
		}
		if len(call.Args) == 0 {
			return true
		}
		id, ok := ast.Unparen(call.Args[0]).(*ast.Ident)
		if !ok {
			return true
		}
		obj := analysis.ObjectOf(pass.TypesInfo, id)
		if obj == nil || seen[obj] {
			return true
		}
		// Declared outside the loop?
		if obj.Pos() >= rs.Pos() && obj.Pos() <= rs.End() {
			return true
		}
		seen[obj] = true
		out = append(out, obj)
		return true
	})
	return out
}

// sortedLater reports whether a later statement sorts obj (any call
// into package sort or slices that mentions it).
func sortedLater(pass *analysis.Pass, rest []ast.Stmt, obj types.Object) bool {
	for _, stmt := range rest {
		found := false
		ast.Inspect(stmt, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := analysis.CalleeFunc(pass.TypesInfo, call)
			if fn == nil || fn.Pkg() == nil {
				return true
			}
			if p := fn.Pkg().Path(); p != "sort" && p != "slices" {
				return true
			}
			for _, arg := range call.Args {
				mentions := false
				ast.Inspect(arg, func(an ast.Node) bool {
					if id, ok := an.(*ast.Ident); ok && analysis.ObjectOf(pass.TypesInfo, id) == obj {
						mentions = true
					}
					return !mentions
				})
				if mentions {
					found = true
					return false
				}
			}
			return true
		})
		if found {
			return true
		}
	}
	return false
}

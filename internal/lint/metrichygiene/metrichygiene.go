// Package metrichygiene enforces the metrics conventions the repo's
// dashboards and experiment reports depend on:
//
//   - Registration happens on init paths only — functions named init,
//     New*/new*, or Instrument*. Registering from a request path either
//     panics (duplicate name) or silently mints families per call.
//   - Metric names are compile-time constants listed in the metrics
//     package's KnownMetricNames registry. A typo splits a time series
//     forever; the registry makes every referenceable name fail loudly
//     instead.
//   - Label values are bounded. A CounterVec's value set is fixed when
//     NewCounterVec registers it, so the rule checks the elements of a
//     literal value set there: literals/constants, enum-type
//     conversions, strconv.Itoa, or String() methods. Raw string
//     variables (peer addresses, keys) and fmt.Sprint* make label
//     cardinality unbounded and memory growth linear in traffic.
//
// The pass matches the metrics package by NAME, so fixtures can ship a
// miniature stand-in with their own KnownMetricNames.
package metrichygiene

import (
	"go/ast"
	"go/constant"
	"go/types"
	"path"
	"strings"

	"repro/internal/lint/analysis"
)

// Analyzer is the metrichygiene pass.
var Analyzer = &analysis.Analyzer{
	Name: "metrichygiene",
	Doc:  "enforce metric registration placement, checked names, and bounded label cardinality",
	Run:  run,
}

// registerMethods are the metrics.Registry methods whose first argument
// is a metric name.
var registerMethods = map[string]bool{
	"NewCounter": true, "NewGauge": true, "NewHistogram": true,
	"NewCounterVec": true, "NewCounterFunc": true,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		name := path.Base(pass.Fset.Position(f.Pos()).Filename)
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			inInit := initPath(fd.Name.Name)
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				checkCall(pass, call, inInit)
				return true
			})
		}
	}
	return nil
}

// initPath reports whether a function name marks a registration-safe
// construction path.
func initPath(name string) bool {
	return name == "init" ||
		strings.HasPrefix(name, "New") || strings.HasPrefix(name, "new") ||
		strings.HasPrefix(name, "Instrument")
}

func checkCall(pass *analysis.Pass, call *ast.CallExpr, inInit bool) {
	fn := analysis.CalleeFunc(pass.TypesInfo, call)
	if fn == nil {
		return
	}
	sig := fn.Type().(*types.Signature)
	recv := sig.Recv()
	if recv == nil {
		return
	}
	if !registerMethods[fn.Name()] || !analysis.NamedFromPkg(recv.Type(), "metrics", "Registry") {
		return
	}
	checkRegistration(pass, call, fn, inInit)
	if fn.Name() == "NewCounterVec" && len(call.Args) == 4 {
		if lit, ok := ast.Unparen(call.Args[3]).(*ast.CompositeLit); ok {
			for _, elt := range lit.Elts {
				checkLabelValue(pass, elt)
			}
		}
	}
}

func checkRegistration(pass *analysis.Pass, call *ast.CallExpr, fn *types.Func, inInit bool) {
	if !inInit {
		pass.Reportf(call.Pos(),
			"metric registered outside an init path; move %s into an init, New*, or Instrument* function so each family is minted exactly once",
			fn.Name())
	}
	if len(call.Args) == 0 {
		return
	}
	tv, ok := pass.TypesInfo.Types[call.Args[0]]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		pass.Reportf(call.Args[0].Pos(),
			"metric name must be a compile-time constant so the name registry can check it")
		return
	}
	name := constant.StringVal(tv.Value)
	known, ok := knownNames(fn.Pkg())
	if !ok {
		return // metrics package has no registry; nothing to check against
	}
	if !known[name] {
		pass.Reportf(call.Args[0].Pos(),
			"unknown metric name %q; add it to metrics.KnownMetricNames or fix the typo", name)
	}
}

// knownNames reads the KnownMetricNames constant out of the metrics
// package's scope — constant values survive type-checking, so this
// works cross-package without export data.
func knownNames(metricsPkg *types.Package) (map[string]bool, bool) {
	c, _ := metricsPkg.Scope().Lookup("KnownMetricNames").(*types.Const)
	if c == nil || c.Val().Kind() != constant.String {
		return nil, false
	}
	known := map[string]bool{}
	for _, line := range strings.Split(constant.StringVal(c.Val()), "\n") {
		if line = strings.TrimSpace(line); line != "" {
			known[line] = true
		}
	}
	return known, true
}

// checkLabelValue flags label-value expressions with no visible bound
// on their cardinality.
func checkLabelValue(pass *analysis.Pass, arg ast.Expr) {
	arg = ast.Unparen(arg)
	if tv, ok := pass.TypesInfo.Types[arg]; ok && tv.Value != nil {
		return // literal or constant
	}
	call, ok := arg.(*ast.CallExpr)
	if !ok {
		pass.Reportf(arg.Pos(),
			"label value %s is not obviously bounded; use a constant, an enum conversion, strconv.Itoa, or a String() method — raw strings make metric cardinality unbounded",
			types.ExprString(arg))
		return
	}
	// A conversion from plain string launders an unbounded value; a
	// conversion from a named type is an enum by convention.
	if tv, ok := pass.TypesInfo.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		if at, ok := pass.TypesInfo.Types[call.Args[0]]; ok &&
			types.Identical(at.Type, types.Typ[types.String]) && at.Value == nil {
			pass.Reportf(arg.Pos(),
				"label value %s converts a raw string; conversions only bound cardinality when the source is an enum type",
				types.ExprString(arg))
		}
		return
	}
	// fmt.Sprint* formats arbitrary data into the label.
	if fn := analysis.CalleeFunc(pass.TypesInfo, call); fn != nil && fn.Pkg() != nil &&
		fn.Pkg().Path() == "fmt" && strings.HasPrefix(fn.Name(), "Sprint") {
		pass.Reportf(arg.Pos(),
			"label value %s formats arbitrary data; fmt.Sprint* makes metric cardinality unbounded",
			types.ExprString(arg))
	}
	// Other calls (strconv.Itoa, String() methods) are treated as
	// bounded by convention.
}

// Package ctxflow enforces context propagation now that the wire
// Caller is ctx-first: cancellation flows from the caller down to every
// RPC, and nothing in library code silently detaches from it.
//
// Three rules, applied outside package main and _test.go files:
//
//  1. context.Background() and context.TODO() are forbidden, package-level
//     var initialisers included. Roots belong in main and in tests;
//     everything else receives its context. The node's lifecycle root (cancelled by Close) is the
//     one sanctioned library root and carries a reasoned //lint:allow.
//  2. When a function declares a context.Context parameter, it must be
//     the first parameter (receiver aside) — the convention every
//     wire.Request-reaching chain in this repo follows.
//  3. A function that has a context parameter must pass it (or a
//     context derived from it) onward, never rebuild one:
//     context.Background()/TODO() as a call argument inside such a
//     function severs the caller's cancellation exactly where it was
//     supposed to flow.
//
// Escape of a derived-with-cancel context without its cancel being
// called or returned is go vet's lostcancel pass's job (`make lint` runs
// vet first); ctxflow deliberately does not duplicate it.
package ctxflow

import (
	"go/ast"
	"go/token"
	"go/types"
	"path"
	"strings"

	"repro/internal/lint/analysis"
)

// Analyzer is the ctxflow pass.
var Analyzer = &analysis.Analyzer{
	Name: "ctxflow",
	Doc:  "no context.Background/TODO outside main and tests; ctx is the first parameter and is propagated, not rebuilt",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	if pass.Pkg.Name() == "main" {
		return nil
	}
	for _, f := range pass.Files {
		name := path.Base(pass.Fset.Position(f.Pos()).Filename)
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		for _, d := range f.Decls {
			if g, ok := d.(*ast.GenDecl); ok && g.Tok == token.VAR {
				checkBody(pass, nil, g)
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				checkCtxFirst(pass, n.Type, n.Name.Name)
				if n.Body != nil {
					checkBody(pass, n.Type, n.Body)
				}
			case *ast.FuncLit:
				checkCtxFirst(pass, n.Type, "func literal")
				checkBody(pass, n.Type, n.Body)
			}
			// Keep descending: checkBody stops at nested literals, so each
			// literal is picked up exactly once, here, with its own signature.
			return true
		})
	}
	return nil
}

// isCtxType reports whether t is context.Context.
func isCtxType(t types.Type) bool {
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
}

// hasCtxParam reports whether ft declares a context.Context parameter.
func hasCtxParam(pass *analysis.Pass, ft *ast.FuncType) bool {
	if ft == nil || ft.Params == nil {
		return false
	}
	for _, field := range ft.Params.List {
		if tv, ok := pass.TypesInfo.Types[field.Type]; ok && isCtxType(tv.Type) {
			return true
		}
	}
	return false
}

// checkCtxFirst enforces rule 2: a declared context parameter sits in
// position zero.
func checkCtxFirst(pass *analysis.Pass, ft *ast.FuncType, name string) {
	if ft.Params == nil {
		return
	}
	for i, field := range ft.Params.List {
		if tv, ok := pass.TypesInfo.Types[field.Type]; ok && isCtxType(tv.Type) && i > 0 {
			pass.Reportf(field.Pos(),
				"context.Context must be the first parameter of %s", name)
		}
	}
}

// checkBody enforces rules 1 and 3 over one function body, or a
// package-level declaration when ft is nil. Nested function literals are
// handled by the outer Inspect, not here.
func checkBody(pass *analysis.Pass, ft *ast.FuncType, body ast.Node) {
	hasCtx := hasCtxParam(pass, ft)
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false // visited separately with its own signature
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		name := ""
		switch {
		case analysis.IsPkgCall(pass.TypesInfo, call, "context", "Background"):
			name = "context.Background"
		case analysis.IsPkgCall(pass.TypesInfo, call, "context", "TODO"):
			name = "context.TODO"
		default:
			return true
		}
		if hasCtx {
			pass.Reportf(call.Pos(),
				"%s rebuilds a fresh context inside a function that already has one; propagate the ctx parameter (derive with WithTimeout/WithCancel if a tighter bound is needed)", name)
		} else {
			pass.Reportf(call.Pos(),
				"%s outside main/tests detaches this call chain from cancellation; accept a ctx parameter and propagate it", name)
		}
		return true
	})
}

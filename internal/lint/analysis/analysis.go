// Package analysis is a minimal, dependency-free mirror of the
// golang.org/x/tools/go/analysis API surface the hieras-lint suite
// needs. The container this repo builds in has no module proxy access,
// so the real x/tools package cannot be fetched; the types here keep
// the analyzers source-compatible with it (an Analyzer has Name, Doc
// and Run(*Pass); a Pass carries the package's syntax, type info and a
// Report sink), so a future PR can swap the import path and delete this
// package without touching analyzer logic.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Analyzer describes one static check. Name is the identifier used in
// diagnostics and //lint:allow suppressions. Exactly one of Run and
// RunProgram is set: Run analyzes one package at a time, RunProgram sees
// every loaded package in a single invocation — for contracts that only
// exist across package boundaries, like the lock-acquisition graph
// spanning transport, replica, routes and wire.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass) error
	// RunProgram, when non-nil, makes this a program-level analyzer: the
	// driver calls it once with every loaded package instead of calling
	// Run per package.
	RunProgram func(*ProgramPass) error
}

// Pass carries one package's worth of input to an Analyzer.Run.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// Report receives diagnostics. The driver installs a sink that
	// applies //lint:allow suppression before anything is printed.
	Report func(Diagnostic)
}

// Reportf reports a diagnostic at pos, stamped with the pass's
// analyzer name so the suppression layer can match //lint:allow
// directives against it.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	p.Report(Diagnostic{Pos: pos, Analyzer: p.Analyzer.Name, Message: fmt.Sprintf(format, args...)})
}

// Diagnostic is one finding.
type Diagnostic struct {
	Pos      token.Pos
	Analyzer string
	Message  string
}

// Unit is one package's syntax and type information inside a
// program-level pass — the per-package slice of a Pass without the
// reporting machinery.
type Unit struct {
	Path      string
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
}

// ProgramPass carries every loaded package to a program-level
// analyzer's RunProgram.
type ProgramPass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Units    []*Unit

	// Report receives diagnostics, exactly as on Pass.
	Report func(Diagnostic)
}

// Reportf reports a diagnostic at pos, stamped with the pass's analyzer
// name.
func (p *ProgramPass) Reportf(pos token.Pos, format string, args ...interface{}) {
	p.Report(Diagnostic{Pos: pos, Analyzer: p.Analyzer.Name, Message: fmt.Sprintf(format, args...)})
}

// Run applies analyzers to units: each per-package analyzer to every
// unit, each program-level one once to all of them. It returns unit i's
// diagnostics in perUnit[i] and the program-level ones apart, none of
// them suppressed.
func Run(fset *token.FileSet, units []*Unit, analyzers []*Analyzer) (perUnit [][]Diagnostic, program []Diagnostic, err error) {
	perUnit = make([][]Diagnostic, len(units))
	for i, u := range units {
		for _, a := range analyzers {
			if a.Run == nil {
				continue
			}
			pass := &Pass{Analyzer: a, Fset: fset, Files: u.Files, Pkg: u.Pkg, TypesInfo: u.TypesInfo,
				Report: func(d Diagnostic) { perUnit[i] = append(perUnit[i], d) }}
			if err := a.Run(pass); err != nil {
				return nil, nil, fmt.Errorf("%s on %s: %v", a.Name, u.Path, err)
			}
		}
	}
	for _, a := range analyzers {
		if a.RunProgram == nil {
			continue
		}
		pass := &ProgramPass{Analyzer: a, Fset: fset, Units: units,
			Report: func(d Diagnostic) { program = append(program, d) }}
		if err := a.RunProgram(pass); err != nil {
			return nil, nil, fmt.Errorf("%s (program pass): %v", a.Name, err)
		}
	}
	return perUnit, program, nil
}

// Package lint assembles the repo's analyzer suite and drives it over
// loaded packages. The individual contracts live in their own
// subpackages (nodeterm, lockrpc, retrysafe, metrichygiene, wraperr,
// goroutinelife, ctxflow, lockorder, chandisc, stock); this package
// owns the roster, the //lint:allow suppression layer, and
// deterministic diagnostic ordering. cmd/hieras-lint is a thin CLI
// over Run.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"

	"repro/internal/lint/analysis"
	"repro/internal/lint/chandisc"
	"repro/internal/lint/ctxflow"
	"repro/internal/lint/goroutinelife"
	"repro/internal/lint/loader"
	"repro/internal/lint/lockorder"
	"repro/internal/lint/lockrpc"
	"repro/internal/lint/metrichygiene"
	"repro/internal/lint/nodeterm"
	"repro/internal/lint/retrysafe"
	"repro/internal/lint/stock"
	"repro/internal/lint/wraperr"
)

// Analyzers returns the full suite in reporting order: the
// repo-contract passes first (the four concurrency-contract analyzers
// after the original five), then the stock-style safety passes.
func Analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		nodeterm.Analyzer,
		lockrpc.Analyzer,
		retrysafe.Analyzer,
		metrichygiene.Analyzer,
		wraperr.Analyzer,
		goroutinelife.Analyzer,
		ctxflow.Analyzer,
		lockorder.Analyzer,
		chandisc.Analyzer,
		stock.Nilness,
		stock.Shadow,
	}
}

// Finding is one diagnostic with its position resolved.
type Finding struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Analyzer, f.Message)
}

// rawRun executes every analyzer over prog — per-package analyzers on
// each package, program-level analyzers once over all of them — and
// returns the unfiltered diagnostics grouped per package plus the
// program-level ones.
func rawRun(prog *loader.Program, analyzers []*analysis.Analyzer) (perPkg [][]analysis.Diagnostic, programDiags []analysis.Diagnostic, err error) {
	perPkg = make([][]analysis.Diagnostic, len(prog.Pkgs))
	var programAnalyzers []*analysis.Analyzer
	for _, a := range analyzers {
		if a.RunProgram != nil {
			programAnalyzers = append(programAnalyzers, a)
		}
	}
	for i, pkg := range prog.Pkgs {
		i := i
		for _, a := range analyzers {
			if a.Run == nil {
				continue
			}
			pass := &analysis.Pass{
				Analyzer:  a,
				Fset:      prog.Fset,
				Files:     pkg.Files,
				Pkg:       pkg.Pkg,
				TypesInfo: pkg.Info,
				Report:    func(d analysis.Diagnostic) { perPkg[i] = append(perPkg[i], d) },
			}
			if err := a.Run(pass); err != nil {
				return nil, nil, fmt.Errorf("%s on %s: %v", a.Name, pkg.Path, err)
			}
		}
	}
	if len(programAnalyzers) > 0 {
		units := make([]*analysis.Unit, len(prog.Pkgs))
		for i, pkg := range prog.Pkgs {
			units[i] = &analysis.Unit{Path: pkg.Path, Files: pkg.Files, Pkg: pkg.Pkg, TypesInfo: pkg.Info}
		}
		for _, a := range programAnalyzers {
			pass := &analysis.ProgramPass{
				Analyzer: a,
				Fset:     prog.Fset,
				Units:    units,
				Report:   func(d analysis.Diagnostic) { programDiags = append(programDiags, d) },
			}
			if err := a.RunProgram(pass); err != nil {
				return nil, nil, fmt.Errorf("%s (program pass): %v", a.Name, err)
			}
		}
	}
	return perPkg, programDiags, nil
}

// Run executes every analyzer over every package of prog, applies the
// //lint:allow suppression layer (malformed allows become findings
// themselves), and returns the surviving findings sorted by position.
func Run(prog *loader.Program, analyzers []*analysis.Analyzer) ([]Finding, error) {
	known := map[string]bool{}
	for _, a := range analyzers {
		known[a.Name] = true
	}
	perPkg, programDiags, err := rawRun(prog, analyzers)
	if err != nil {
		return nil, err
	}
	var findings []Finding
	add := func(d analysis.Diagnostic) {
		findings = append(findings, Finding{
			Pos:      prog.Fset.Position(d.Pos),
			Analyzer: d.Analyzer,
			Message:  d.Message,
		})
	}
	for i, pkg := range prog.Pkgs {
		sup := analysis.NewSuppressor(prog.Fset, pkg.Files, known)
		for _, d := range perPkg[i] {
			if !sup.Suppressed(prog.Fset, d) {
				add(d)
			}
		}
		for _, d := range sup.Malformed() {
			add(d)
		}
	}
	if len(programDiags) > 0 {
		// One suppressor over every file: the keys carry the filename, so
		// an allow only ever matches findings in its own file. Malformed
		// directives were already reported by the per-package suppressors.
		sup := analysis.NewSuppressor(prog.Fset, allFiles(prog), known)
		for _, d := range programDiags {
			if !sup.Suppressed(prog.Fset, d) {
				add(d)
			}
		}
	}
	sortFindings(findings)
	return findings, nil
}

// StaleAllow is a //lint:allow directive whose analyzer no longer
// reports anything at the site it suppresses.
type StaleAllow struct {
	Pos      token.Position
	Analyzer string
	Reason   string
}

func (s StaleAllow) String() string {
	return fmt.Sprintf("%s:%d:%d: stale //lint:allow %s (%s): analyzer no longer fires here",
		s.Pos.Filename, s.Pos.Line, s.Pos.Column, s.Analyzer, s.Reason)
}

// StaleAllows runs the suite with suppression disabled and returns the
// well-formed allow directives that no diagnostic of their analyzer
// lands on (same file, the directive's line or the line below) — the
// suppressions that outlived the violation they excused. Malformed
// directives are not reported here; the normal Run already flags them.
func StaleAllows(prog *loader.Program, analyzers []*analysis.Analyzer) ([]StaleAllow, error) {
	known := map[string]bool{}
	for _, a := range analyzers {
		known[a.Name] = true
	}
	perPkg, programDiags, err := rawRun(prog, analyzers)
	if err != nil {
		return nil, err
	}
	// hit is keyed by analyzer\x00file\x00line of every raw diagnostic.
	hit := map[string]bool{}
	mark := func(d analysis.Diagnostic) {
		pos := prog.Fset.Position(d.Pos)
		hit[fmt.Sprintf("%s\x00%s\x00%d", d.Analyzer, pos.Filename, pos.Line)] = true
	}
	for _, diags := range perPkg {
		for _, d := range diags {
			mark(d)
		}
	}
	for _, d := range programDiags {
		mark(d)
	}
	var stale []StaleAllow
	seen := map[token.Pos]bool{} // in-package test files appear in two units
	for _, pkg := range prog.Pkgs {
		for _, f := range pkg.Files {
			for _, a := range analysis.ParseAllows(prog.Fset, f) {
				if a.Analyzer == "" || !known[a.Analyzer] || a.Reason == "" || seen[a.Pos] {
					continue
				}
				seen[a.Pos] = true
				if hit[fmt.Sprintf("%s\x00%s\x00%d", a.Analyzer, a.File, a.Line)] ||
					hit[fmt.Sprintf("%s\x00%s\x00%d", a.Analyzer, a.File, a.Line+1)] {
					continue
				}
				stale = append(stale, StaleAllow{
					Pos:      prog.Fset.Position(a.Pos),
					Analyzer: a.Analyzer,
					Reason:   a.Reason,
				})
			}
		}
	}
	sort.Slice(stale, func(i, j int) bool {
		a, b := stale[i], stale[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		return a.Pos.Line < b.Pos.Line
	})
	return stale, nil
}

func allFiles(prog *loader.Program) []*ast.File {
	var out []*ast.File
	for _, pkg := range prog.Pkgs {
		out = append(out, pkg.Files...)
	}
	return out
}

func sortFindings(findings []Finding) {
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
}

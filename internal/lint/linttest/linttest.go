// Package linttest runs lint analyzers over fixture packages, in the
// style of golang.org/x/tools/go/analysis/analysistest: fixture files
// live under testdata/src/<pkg>/ and annotate the lines expected to be
// flagged with
//
//	// want "regexp"
//
// comments (several quoted regexps may follow one want). Imports are
// resolved against sibling fixture directories first — so a fixture can
// ship a fake "wire" or "metrics" package — then against the standard
// library, type-checked from source.
package linttest

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/lint/analysis"
	"repro/internal/lint/loader"
)

// root caches one testdata/src tree: a shared stdlib importer plus the
// fixture packages already checked against it.
type root struct {
	imp      *loader.StdImporter
	fixtures map[string]*analysis.Unit
}

var (
	rootsMu sync.Mutex
	roots   = map[string]*root{}
)

func rootFor(srcRoot string) *root {
	abs, err := filepath.Abs(srcRoot)
	if err != nil {
		abs = srcRoot
	}
	rootsMu.Lock()
	defer rootsMu.Unlock()
	if r, ok := roots[abs]; ok {
		return r
	}
	r := &root{imp: loader.NewStdImporter(abs), fixtures: map[string]*analysis.Unit{}}
	roots[abs] = r
	return r
}

// load parses and type-checks srcRoot/<pkg>, recursively loading
// fixture imports that exist as sibling directories.
func (r *root) load(t *testing.T, srcRoot, pkg string, loading map[string]bool) *analysis.Unit {
	t.Helper()
	if u, ok := r.fixtures[pkg]; ok {
		return u
	}
	if loading[pkg] {
		t.Fatalf("fixture import cycle through %q", pkg)
	}
	loading[pkg] = true
	defer delete(loading, pkg)

	dir := filepath.Join(srcRoot, pkg)
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("fixture %s: %v", pkg, err)
	}
	var files []*ast.File
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, parseErr := parser.ParseFile(r.imp.Fset(), filepath.Join(dir, e.Name()), nil,
			parser.ParseComments|parser.SkipObjectResolution)
		if parseErr != nil {
			t.Fatalf("fixture %s: %v", pkg, parseErr)
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		t.Fatalf("fixture %s: no Go files in %s", pkg, dir)
	}
	// Sibling fixture imports are checked first and registered with the
	// importer, shadowing any same-named real package.
	for _, f := range files {
		for _, spec := range f.Imports {
			path, _ := strconv.Unquote(spec.Path.Value)
			if st, statErr := os.Stat(filepath.Join(srcRoot, path)); statErr == nil && st.IsDir() {
				sub := r.load(t, srcRoot, path, loading)
				r.imp.Add(path, sub.Pkg)
			}
		}
	}
	info := loader.NewInfo()
	tp, err := r.imp.CheckFiles(pkg, files, info)
	if err != nil {
		t.Fatalf("fixture %s: %v", pkg, err)
	}
	u := &analysis.Unit{Path: pkg, Files: files, Pkg: tp, TypesInfo: info}
	r.fixtures[pkg] = u
	return u
}

var wantRE = regexp.MustCompile(`//\s*want\s+(.*)$`)
var quotedRE = regexp.MustCompile("\"(?:[^\"\\\\]|\\\\.)*\"|`[^`]*`")

// expectation is one want regexp at a file line.
type expectation struct {
	file string
	line int
	re   *regexp.Regexp
	hit  bool
}

func parseWants(t *testing.T, fset *token.FileSet, files []*ast.File) []*expectation {
	t.Helper()
	var wants []*expectation
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRE.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := fset.Position(c.Pos())
				for _, q := range quotedRE.FindAllString(m[1], -1) {
					s, err := strconv.Unquote(q)
					if err != nil {
						t.Fatalf("%s: bad want pattern %s: %v", pos, q, err)
					}
					re, err := regexp.Compile(s)
					if err != nil {
						t.Fatalf("%s: bad want regexp %q: %v", pos, s, err)
					}
					wants = append(wants, &expectation{file: pos.Filename, line: pos.Line, re: re})
				}
			}
		}
	}
	return wants
}

// analyze loads the fixture packages and applies the analyzer with
// //lint:allow suppression, exactly as the real driver does, returning
// the fixtures' files and the findings sorted by position. Each fixture
// is one unit; a program-level analyzer (RunProgram) sees all of them in
// a single pass.
func analyze(t *testing.T, srcRoot string, pkgs []string, a *analysis.Analyzer) (*token.FileSet, []*ast.File, []analysis.Diagnostic) {
	t.Helper()
	r := rootFor(srcRoot)
	fset := r.imp.Fset()
	units := make([]*analysis.Unit, len(pkgs))
	var files []*ast.File
	for i, pkg := range pkgs {
		units[i] = r.load(t, srcRoot, pkg, map[string]bool{})
		files = append(files, units[i].Files...)
	}
	perUnit, diags, err := analysis.Run(fset, units, []*analysis.Analyzer{a})
	if err != nil {
		t.Fatalf("analyzer %s: %v", a.Name, err)
	}
	for _, ds := range perUnit {
		diags = append(diags, ds...)
	}
	sup := analysis.NewSuppressor(fset, files, map[string]bool{a.Name: true})
	kept := diags[:0]
	for _, d := range diags {
		if !sup.Suppressed(fset, d) {
			kept = append(kept, d)
		}
	}
	kept = append(kept, sup.Malformed()...)
	sort.Slice(kept, func(i, j int) bool { return kept[i].Pos < kept[j].Pos })
	return fset, files, kept
}

// Run loads srcRoot/<pkg>, applies the analyzer and diffs the resulting
// diagnostics against the fixture's want annotations.
func Run(t *testing.T, srcRoot, pkg string, a *analysis.Analyzer) {
	t.Helper()
	RunPkgs(t, srcRoot, []string{pkg}, a)
}

// RunPkgs loads several fixture packages and applies the analyzer to
// all of them together — for program-level analyzers whose findings
// only exist across package boundaries. Want annotations are honored in
// every listed package.
func RunPkgs(t *testing.T, srcRoot string, pkgs []string, a *analysis.Analyzer) {
	t.Helper()
	fset, files, diags := analyze(t, srcRoot, pkgs, a)
	wants := parseWants(t, fset, files)

	for _, d := range diags {
		pos := fset.Position(d.Pos)
		matched := false
		for _, w := range wants {
			if !w.hit && w.file == pos.Filename && w.line == pos.Line && w.re.MatchString(d.Message) {
				w.hit = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("%s: unexpected diagnostic: [%s] %s", pos, d.Analyzer, d.Message)
		}
	}
	for _, w := range wants {
		if !w.hit {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", w.file, w.line, w.re)
		}
	}
}

// Diagnostics returns the suppression-filtered findings for a fixture,
// for tests that assert on the list directly.
func Diagnostics(t *testing.T, srcRoot, pkg string, a *analysis.Analyzer) []analysis.Diagnostic {
	t.Helper()
	_, _, diags := analyze(t, srcRoot, []string{pkg}, a)
	return diags
}

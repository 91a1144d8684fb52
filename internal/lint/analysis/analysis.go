// Package analysis is the repo-local core of the sopslint static-analysis
// suite: a deliberately small, dependency-free re-implementation of the
// golang.org/x/tools/go/analysis vocabulary (Analyzer, Pass, Diagnostic)
// on top of the standard library's go/ast and go/types.
//
// The upstream module is not vendored here — the container images this
// repo builds in carry only the Go toolchain — so the suite typechecks
// packages itself from compiler export data (see the sibling load
// package) and keeps the analyzer surface to exactly what the sopslint
// analyzers need: typed ASTs, position-addressed diagnostics, object
// facts, a CFG and dataflow solver, and per-file traversal that skips
// _test.go files (the determinism, cancellation and budget contracts
// bind production code; tests are free to use wall clocks, raw rand and
// context.Background()).
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// An Analyzer is one named, documented invariant check. Run inspects a
// single typechecked package through the Pass and reports findings via
// Pass.Reportf; analyzers are stateless and safe to reuse across
// packages.
type Analyzer struct {
	// Name is the identifier used in diagnostics. Lower-case, no
	// spaces.
	Name string
	// Doc states the contract the analyzer mechanizes, first line short.
	Doc string
	// Run performs the check. Returned errors are infrastructure
	// failures (they abort the run), not findings.
	Run func(*Pass) error
}

// A Package is one typechecked compilation unit ready for analysis.
type Package struct {
	// Path is the import path ("repro/internal/sweep"; corpus packages
	// use their testdata-relative path).
	Path  string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
	// Facts is the fact store shared by the run: facts of this
	// package's dependencies on entry, plus this package's own exports
	// once its fact pass has run. Analyzers read every call summary,
	// local or cross-package, from it.
	Facts *FactSet

	memo map[string]any
}

// Memo returns the cached value under key, building it on first use.
// Analyzers sharing expensive per-package state (the taint engine, call
// summaries) key it here so the several passes over one package compute
// it once.
func (p *Package) Memo(key string, build func() any) any {
	if p.memo == nil {
		p.memo = map[string]any{}
	}
	v, ok := p.memo[key]
	if !ok {
		v = build()
		p.memo[key] = v
	}
	return v
}

// A Diagnostic is one finding, addressed by resolved source position so
// drivers can print and sort it without the FileSet in hand.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

// A Pass connects one Analyzer to one Package and collects its
// diagnostics.
type Pass struct {
	Analyzer *Analyzer
	Pkg      *Package

	diags []Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{
		Pos:      p.Pkg.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// TypeOf returns the type of e, or nil when untypeable.
func (p *Pass) TypeOf(e ast.Expr) types.Type { return p.Pkg.Info.TypeOf(e) }

// ObjectOf returns the object denoted by id, or nil.
func (p *Pass) ObjectOf(id *ast.Ident) types.Object { return p.Pkg.Info.ObjectOf(id) }

// ImportObjectFact copies the stored fact of ptr's type about obj into
// *ptr. It reports false when no such fact was exported.
func (p *Pass) ImportObjectFact(obj types.Object, ptr Fact) bool {
	return p.Pkg.Facts.ImportObjectFact(obj, ptr)
}

// ExportObjectFact publishes fact about obj for this package's later
// passes and for downstream packages.
func (p *Pass) ExportObjectFact(obj types.Object, fact Fact) {
	p.Pkg.Facts.ExportObjectFact(obj, fact)
}

// SourceFiles returns the package's non-test files: every sopslint
// contract applies to production code only, so analyzers iterate this
// instead of Pkg.Files.
func (p *Pass) SourceFiles() []*ast.File {
	var out []*ast.File
	for _, f := range p.Pkg.Files {
		name := p.Pkg.Fset.Position(f.Package).Filename
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		out = append(out, f)
	}
	return out
}

// Run applies one analyzer to one package and returns its diagnostics.
func Run(a *Analyzer, pkg *Package) ([]Diagnostic, error) {
	pass := &Pass{Analyzer: a, Pkg: pkg}
	if err := a.Run(pass); err != nil {
		return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.Path, err)
	}
	return pass.diags, nil
}

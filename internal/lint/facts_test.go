package lint

import (
	"go/token"
	"go/types"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/lint/analysis"
	"repro/internal/lint/load"
)

// fakeFactObject builds a detached function object in a synthetic
// package to key facts on. Fact identity is (package path, object key,
// fact type), so a fresh object with the same coordinates must resolve
// the same fact.
func fakeFactObject() *types.Func {
	pkg := types.NewPackage("corpus/p", "p")
	sig := types.NewSignatureType(nil, nil, nil, nil, nil, false)
	return types.NewFunc(token.NoPos, pkg, "F", sig)
}

// TestFactIdentityIsPositional exports one fact of every type and
// imports each back through fresh objects with the same coordinates:
// load.Packages typechecks each importer against export data, so an
// importer never holds the types.Object a dependency exported its fact
// on.
func TestFactIdentityIsPositional(t *testing.T) {
	fn := fakeFactObject()
	facts := analysis.NewFactSet()
	facts.ExportObjectFact(fn, &TaintFact{Ret: 5, Escapes: 2, Sinks: 9, Src: "time.Now"})
	facts.ExportObjectFact(fn, &BoundedFact{})
	facts.ExportObjectFact(fn, &RootMintFact{})
	facts.ExportObjectFact(fn, &ErrWrapFact{Params: 3})

	fn2 := fakeFactObject()
	var taint TaintFact
	if !facts.ImportObjectFact(fn2, &taint) {
		t.Fatal("TaintFact not found through a fresh object")
	}
	if taint != (TaintFact{Ret: 5, Escapes: 2, Sinks: 9, Src: "time.Now"}) {
		t.Errorf("TaintFact = %+v", taint)
	}
	var bounded BoundedFact
	if !facts.ImportObjectFact(fn2, &bounded) {
		t.Error("BoundedFact not found through a fresh object")
	}
	var mint RootMintFact
	if !facts.ImportObjectFact(fn2, &mint) {
		t.Error("RootMintFact not found through a fresh object")
	}
	var wrap ErrWrapFact
	if !facts.ImportObjectFact(fn2, &wrap) {
		t.Fatal("ErrWrapFact not found through a fresh object")
	}
	if wrap.Params != 3 {
		t.Errorf("ErrWrapFact.Params = %d, want 3", wrap.Params)
	}
}

// TestFactFlowRequiresFacts is the negative control for the factflow
// corpus: with each package given its own empty fact store, so nothing
// factflow/a exports reaches factflow/b, the cross-package diagnostics
// in factflow/b disappear — proving they ride imported facts, not some
// local approximation.
func TestFactFlowRequiresFacts(t *testing.T) {
	checks := []Check{{Analyzer: Walltime}, {Analyzer: Dettaint}}
	countB := func(pkgs []*analysis.Package) int {
		t.Helper()
		diags, err := Run(pkgs, checks)
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for _, d := range diags {
			if strings.Contains(filepath.ToSlash(d.Pos.Filename), "factflow/b/") {
				n++
			}
		}
		return n
	}

	pkgs, err := load.Corpus("testdata", "factflow/a", "factflow/b")
	if err != nil {
		t.Fatal(err)
	}
	if n := countB(pkgs); n != 2 {
		t.Errorf("with facts: %d diagnostics in factflow/b, want 2", n)
	}

	pkgs, err = load.Corpus("testdata", "factflow/a", "factflow/b")
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pkgs {
		p.Facts = analysis.NewFactSet()
	}
	if n := countB(pkgs); n != 0 {
		t.Errorf("without facts: %d diagnostics in factflow/b, want 0", n)
	}
}

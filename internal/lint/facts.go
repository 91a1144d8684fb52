package lint

// This file defines the suite's facts — the durable per-function
// observations a package's fact pass exports — and the fact pass that
// computes them. Facts are the suite's only summary store: analyzers
// read a callee's summary from them whether the callee lives in the
// package under analysis or in a dependency, so the fingerprint flow
// spec → experiment → sweep, the goroutine lifecycles coordinated across
// internal/sweep/remote, and the cancellation-error identity contract
// are followed across package boundaries by the same lookup that serves
// a local call.
//
// The packages of a run share one analysis.FactSet and are visited in
// dependency order, so a dependency's facts are in the store before any
// importer is analyzed.

import (
	"go/ast"
	"go/types"

	"repro/internal/lint/analysis"
)

// Fact is the suite's fact interface: an object-keyed observation
// exported by one package's analysis and imported by its dependents (an
// alias of the analysis-layer interface, re-exported as the suite's
// vocabulary).
type Fact = analysis.Fact

// TaintFact is a function's taint summary, applied at every call site
// of the function. A present fact with zero masks is information too —
// "this function introduces and propagates nothing" — and silences the
// conservative at-the-boundary clock-escape report.
type TaintFact struct {
	// Ret holds taint kinds a call introduces plus the param bits whose
	// taint flows through to a result.
	Ret uint32
	// Escapes holds param bits that reach a clock-escape point inside.
	Escapes uint32
	// Sinks holds param bits that reach a hash write inside.
	Sinks uint32
	// Src names the intrinsic source when Ret carries kind bits.
	Src string
}

func (*TaintFact) AFact() {}

// BoundedFact marks a function whose body's lifetime is bounded by a
// join signal it already owns — it blocks on ctx.Done(), a done-shaped
// channel, or a WaitGroup Wait — so `go pkg.F(x)` is joined even when
// no context or channel crosses the call.
type BoundedFact struct{}

func (*BoundedFact) AFact() {}

// RootMintFact marks an exported function without a context parameter
// that mints a fresh root (context.Background/TODO) outside the
// sanctioned Run→RunCtx wrapper shape: calling it while holding a ctx
// silently detaches the callee tree from cancellation.
type RootMintFact struct{}

func (*RootMintFact) AFact() {}

// ErrWrapFact records which of a function's error parameters it wraps
// or rewords into a new error (fmt.Errorf and friends) before
// returning. Passing a context cancellation error to such a parameter
// destroys its identity, which the errverbatim contract forbids.
type ErrWrapFact struct {
	// Params is a bitmask over the function's parameters (bit i set:
	// parameter i is wrapped into a returned error).
	Params uint32
}

func (*ErrWrapFact) AFact() {}

// factPass is the pseudo-analyzer the fact pass runs under (facts have
// no diagnostics of their own; the name only labels the Pass).
var factPass = &analysis.Analyzer{
	Name: "facts",
	Doc:  "export cross-package facts (taint summaries, bounded lifetimes, root minting, error wrapping)",
}

// exportFacts runs the fact pass over one package: every fact producer
// publishes into pkg.Facts, regardless of which analyzers are scoped to
// run on the package — dependents outside a contract's scope still
// supply facts to packages inside it. Idempotent per package.
func exportFacts(pkg *analysis.Package) {
	pkg.Memo("lint.factsExported", func() any {
		pass := &analysis.Pass{Analyzer: factPass, Pkg: pkg}
		exportTaintFacts(pass)
		exportBoundedFacts(pass)
		exportRootMintFacts(pass)
		exportErrWrapFacts(pass)
		return true
	})
}

// localDeclsFor memoizes the package's function-object → declaration
// map, shared by the fact pass and the analyzers.
func localDeclsFor(pass *analysis.Pass) map[*types.Func]*ast.FuncDecl {
	return pass.Pkg.Memo("lint.localDecls", func() any {
		return analysis.LocalDecls(pass.Pkg)
	}).(map[*types.Func]*ast.FuncDecl)
}

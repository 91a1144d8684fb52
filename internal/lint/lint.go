// Package lint is sopslint: custom static analyzers that mechanize this
// repository's written contracts. DESIGN.md's "Mechanized contracts"
// table names each analyzer and the contract it holds; DefaultChecks
// scopes them. The suite has one driver: load.Packages feeding Run,
// called by cmd/sopslint (which CI runs) and by the meta-test that keeps
// this repository at zero diagnostics.
//
// The syntax-shape analyzers work on the AST directly; walltime,
// dettaint, tokenpair, goroleak and chansend sit on the flow-sensitive
// layer in internal/lint/analysis — a per-function CFG and a worklist
// dataflow solver — so sanctioned idioms (collect-sort-iterate,
// deferred Done on all paths, Duration instrumentation columns) pass
// without annotation.
//
// Facts are the one summary store. Before any analyzer runs on a
// package, Run's fact pass publishes facts about every function the
// package declares (taint summaries, bounded goroutine launchers,
// context-root minting, error-wrapping helpers) to its FactSet, and
// analyzers look every callee up there, in the same package or across a
// package boundary: load.Packages returns packages in dependency order
// sharing one fact set.
//
// There is no suppression directive: a finding is fixed, or the
// analyzer learns the sanctioned idiom it misread.
package lint

import (
	"sort"
	"strings"

	"repro/internal/lint/analysis"
)

// A Check pairs an analyzer with the set of packages its contract binds.
type Check struct {
	*analysis.Analyzer
	// AppliesTo reports whether the analyzer runs on the package with
	// the given import path.
	AppliesTo func(pkgPath string) bool
}

// resultProducing lists the packages whose outputs feed figures, sweep
// checkpoints or persisted results — with the spec package, the scope
// of the dettaint determinism contract.
var resultProducing = map[string]bool{
	"repro/internal/infotheory":   true,
	"repro/internal/infodynamics": true,
	"repro/internal/sweep":        true,
	"repro/internal/experiment":   true,
	"repro/internal/observer":     true,
	"repro/internal/statcomplex":  true,
}

// inModule reports whether path belongs to this module.
func inModule(path string) bool {
	return path == "repro" || strings.HasPrefix(path, "repro/")
}

// contractScope is the root package plus internal/... minus the lint
// suite itself: the code whose behaviour reaches fingerprints,
// checkpoints and result streams. CLIs (cmd/...) and examples are
// outside — they own program lifetime, so wall clocks and root contexts
// are legitimate there.
func contractScope(path string) bool {
	if strings.HasPrefix(path, "repro/internal/lint") {
		return false
	}
	return path == "repro" || strings.HasPrefix(path, "repro/internal/")
}

// DefaultChecks returns the suite with each analyzer scoped to the
// packages its contract covers (see DESIGN.md, "Mechanized contracts").
func DefaultChecks() []Check {
	return []Check{
		{RNGSource, func(p string) bool { return inModule(p) && p != "repro/internal/rngx" }},
		{Walltime, contractScope},
		{CtxFlow, contractScope},
		{TokenPair, inModule},
		{Goroleak, contractScope},
		{Chansend, contractScope},
		{Dettaint, func(p string) bool { return resultProducing[p] || p == "repro/internal/spec" }},
		{ErrVerbatim, contractScope},
	}
}

// Run applies the checks to the packages and returns the diagnostics
// sorted by position.
func Run(pkgs []*analysis.Package, checks []Check) ([]analysis.Diagnostic, error) {
	var all []analysis.Diagnostic
	for _, pkg := range pkgs {
		// Publish this package's facts before analyzing it, so checks
		// on it — and, with pkgs in dependency order, on everything
		// that imports it — see the exports.
		exportFacts(pkg)
		for _, c := range checks {
			if c.AppliesTo != nil && !c.AppliesTo(pkg.Path) {
				continue
			}
			ds, err := analysis.Run(c.Analyzer, pkg)
			if err != nil {
				return nil, err
			}
			all = append(all, ds...)
		}
	}
	sort.Slice(all, func(i, j int) bool {
		a, b := all[i], all[j]
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
	return all, nil
}

package lint

import (
	"fmt"
	"testing"

	"repro/internal/lint/analysis"
	"repro/internal/lint/load"
)

func TestRNGSourceCorpus(t *testing.T) { runCorpus(t, soloCheck(RNGSource), "rngsource") }

func TestWalltimeCorpus(t *testing.T) { runCorpus(t, soloCheck(Walltime), "walltime") }

func TestCtxFlowCorpus(t *testing.T) { runCorpus(t, soloCheck(CtxFlow), "ctxflow", "workpool") }

func TestTokenPairCorpus(t *testing.T) { runCorpus(t, soloCheck(TokenPair), "tokenpair", "workpool") }

func TestGoroleakCorpus(t *testing.T) { runCorpus(t, soloCheck(Goroleak), "goroleak") }

func TestChansendCorpus(t *testing.T) { runCorpus(t, soloCheck(Chansend), "chansend") }

func TestDettaintCorpus(t *testing.T) { runCorpus(t, soloCheck(Dettaint), "dettaint") }

func TestErrVerbatimCorpus(t *testing.T) {
	runCorpus(t, soloCheck(ErrVerbatim), "errverbatim", "errverbatim/wrapx")
}

// TestErrVerbatimRepeatable reruns errverbatim over its corpus with a
// fresh fact store each time and requires identical diagnostics: which
// wrapper chains are followed must not depend on the order a map hands
// out the declarations.
func TestErrVerbatimRepeatable(t *testing.T) {
	loaded, err := load.Corpus("testdata", "errverbatim", "errverbatim/wrapx")
	if err != nil {
		t.Fatal(err)
	}
	var first string
	for i := 0; i < 50; i++ {
		facts := analysis.NewFactSet()
		pkgs := make([]*analysis.Package, len(loaded))
		for j, p := range loaded {
			pkgs[j] = &analysis.Package{Path: p.Path, Fset: p.Fset, Files: p.Files, Types: p.Types, Info: p.Info, Facts: facts}
		}
		diags, err := Run(pkgs, soloCheck(ErrVerbatim))
		if err != nil {
			t.Fatal(err)
		}
		got := fmt.Sprint(diags)
		if i == 0 {
			first = got
		} else if got != first {
			t.Fatalf("run %d differs from run 0:\n%s\nwant:\n%s", i, got, first)
		}
	}
}

// TestFactFlowCorpus is the cross-package fact proof: the taint facts
// exported while checking factflow/a are what let walltime and dettaint
// report inside factflow/b (see TestFactFlowRequiresFacts for the
// negative control).
func TestFactFlowCorpus(t *testing.T) {
	runCorpus(t, []Check{{Analyzer: Walltime}, {Analyzer: Dettaint}}, "factflow/a", "factflow/b")
}

// TestGoroleakFactsCorpus pins BoundedFact flow: a spawn of another
// package's exported loop is joined only if that loop's own body is
// bounded.
func TestGoroleakFactsCorpus(t *testing.T) {
	runCorpus(t, soloCheck(Goroleak), "goroleakx", "goroleakx/watcher")
}

// TestCtxFlowFactsCorpus pins RootMintFact flow: dropping a held
// context at a cross-package boundary that mints its own root.
func TestCtxFlowFactsCorpus(t *testing.T) {
	runCorpus(t, soloCheck(CtxFlow), "ctxflowx", "ctxflowx/rootsrc")
}

// TestDefaultChecksScope pins the package scoping of the suite: which
// contract binds which import paths.
func TestDefaultChecksScope(t *testing.T) {
	byName := map[string]Check{}
	for _, c := range DefaultChecks() {
		byName[c.Name] = c
	}
	cases := []struct {
		analyzer string
		path     string
		want     bool
	}{
		// rngsource binds the whole module except rngx itself.
		{"rngsource", "repro/internal/rngx", false},
		{"rngsource", "repro/internal/sim", true},
		{"rngsource", "repro/cmd/sops", true},
		{"rngsource", "fmt", false},
		// walltime and ctxflow bind root + internal/..., not CLIs and
		// not the lint suite itself.
		{"walltime", "repro", true},
		{"walltime", "repro/internal/sweep", true},
		{"walltime", "repro/cmd/sops", false},
		{"walltime", "repro/internal/lint/load", false},
		{"ctxflow", "repro/internal/experiment", true},
		{"ctxflow", "repro/cmd/sops", false},
		// tokenpair binds everything in the module.
		{"tokenpair", "repro/cmd/sops", true},
		{"tokenpair", "repro/internal/workpool", true},
		{"tokenpair", "os", false},
		// goroleak and chansend bind library code like walltime/ctxflow:
		// root + internal/..., not CLIs (which own program lifetime).
		{"goroleak", "repro/internal/sweep/remote", true},
		{"goroleak", "repro/internal/workpool", true},
		{"goroleak", "repro/cmd/sops", false},
		{"goroleak", "repro/internal/lint", false},
		{"chansend", "repro/internal/workpool", true},
		{"chansend", "repro/cmd/sops", false},
		// dettaint binds the result-producing packages plus the spec
		// package (the fingerprint lives there).
		{"dettaint", "repro/internal/infotheory", true},
		{"dettaint", "repro/internal/sweep", true},
		{"dettaint", "repro/internal/experiment", true},
		{"dettaint", "repro/internal/spec", true},
		{"dettaint", "repro/internal/vec", false},
		{"dettaint", "repro/cmd/sops", false},
		// errverbatim binds library code: root + internal/..., not CLIs
		// and not the lint suite.
		{"errverbatim", "repro/internal/sweep/remote", true},
		{"errverbatim", "repro/internal/lint", false},
	}
	for _, c := range cases {
		chk, ok := byName[c.analyzer]
		if !ok {
			t.Fatalf("no default check named %q", c.analyzer)
		}
		if got := chk.AppliesTo(c.path); got != c.want {
			t.Errorf("%s applies to %s = %v, want %v", c.analyzer, c.path, got, c.want)
		}
	}
}

package lint_test

import (
	"testing"

	"repro/internal/lint"
	"repro/internal/lint/load"
)

// TestRepoIsClean is the enforcement point of the mechanized contracts:
// the whole module, checked by the full default suite, must produce zero
// diagnostics. There is no suppression directive, so a new finding
// anywhere in the repo fails this test (and `sopslint -json` in CI)
// until it is fixed.
func TestRepoIsClean(t *testing.T) {
	pkgs, err := load.Packages("", "repro/...")
	if err != nil {
		t.Fatalf("loading module packages: %v", err)
	}
	if len(pkgs) == 0 {
		t.Fatal("no packages loaded")
	}
	diags, err := lint.Run(pkgs, lint.DefaultChecks())
	if err != nil {
		t.Fatalf("running suite: %v", err)
	}
	for _, d := range diags {
		t.Errorf("%s: [%s] %s", d.Pos, d.Analyzer, d.Message)
	}
}

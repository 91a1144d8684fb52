package lint

import (
	"testing"

	"repro/internal/lint/load"
)

// BenchmarkSuite times the full default suite — fact pass included —
// over the whole module: the analysis half of CI's `sopslint -json ./...`
// run. CI's sopslint-bench step fails when it takes longer than
// BenchmarkLoad, the loading it is measured against in the same job.
func BenchmarkSuite(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		// Fresh packages per iteration: fact export and the analyzers'
		// engines memoize per package, so a reused load would time the
		// cache, not the analysis.
		pkgs, err := load.Packages("", "repro/...")
		if err != nil {
			b.Fatalf("loading module packages: %v", err)
		}
		b.StartTimer()
		if _, err := Run(pkgs, DefaultChecks()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLoad times loading the module alone: `go list -export`,
// parsing and typechecking every package BenchmarkSuite analyzes.
func BenchmarkLoad(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := load.Packages("", "repro/..."); err != nil {
			b.Fatalf("loading module packages: %v", err)
		}
	}
}

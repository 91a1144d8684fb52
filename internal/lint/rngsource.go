package lint

import (
	"strings"

	"repro/internal/lint/analysis"
)

// RNGSource forbids random-number sources outside internal/rngx.
//
// Contract (DESIGN.md): every random draw in an experiment flows from an
// rngx.Split-derived stream, so that (a) repeat runs are bit-identical,
// (b) parallel ensembles are schedule-independent, and (c) a spec
// fingerprint pins the full randomness of a run. A stray math/rand
// global or a crypto/rand read is invisible to the fingerprint and
// breaks all three. Test files are exempt.
var RNGSource = &analysis.Analyzer{
	Name: "rngsource",
	Doc:  "forbid math/rand, math/rand/v2 and crypto/rand outside internal/rngx; randomness must derive from rngx.Split streams",
	Run:  runRNGSource,
}

func runRNGSource(pass *analysis.Pass) error {
	for _, f := range pass.Pkg.Files {
		for _, imp := range f.Imports {
			path := strings.Trim(imp.Path.Value, `"`)
			switch path {
			case "math/rand", "math/rand/v2", "crypto/rand":
				pass.Reportf(imp.Pos(), "import of %s outside internal/rngx: derive randomness from an rngx.Split stream so runs stay reproducible and fingerprintable", path)
			}
		}
	}
	return nil
}

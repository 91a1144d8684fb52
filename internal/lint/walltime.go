package lint

import (
	"repro/internal/lint/analysis"
)

// Walltime flags wall-clock reads whose values escape time-typed
// instrumentation in packages reachable from Spec.Fingerprint() or
// checkpoint encoding.
//
// Contract (DESIGN.md): a run's identity is fully determined by its
// spec, and a checkpoint restored on any machine at any time is
// byte-identical to the original computation. A time.Now() feeding that
// closure is a hidden input. The analyzer is flow-aware: reading the
// clock is legal while the value remains transparently time-typed
// instrumentation — time.Time/time.Duration locals, slices of them,
// Duration-typed result columns (the PerEval idiom) — because such
// values are reporting-only by construction. What gets flagged is the
// escape, where a clock read could start steering results:
//
//   - conversion to a non-time type (int64(d), float64(d));
//   - a non-time accessor on a time value (UnixNano, Seconds, String);
//   - a comparison, whose boolean steers control flow;
//   - an argument to another package's API (conn.SetReadDeadline,
//     fmt.Fprintf) — including through a helper whose TaintFact says
//     the parameter escapes.
//
// The suite scopes this check to the root package and internal/... (the
// conservative superset of the fingerprint/checkpoint import closure);
// CLIs, examples and test files are exempt.
var Walltime = &analysis.Analyzer{
	Name: "walltime",
	Doc:  "flag time.Now/time.Since/time.Until values escaping time-typed instrumentation in fingerprint- and checkpoint-reachable packages",
	Run:  runWalltime,
}

var walltimeCalls = map[string]bool{"Now": true, "Since": true, "Until": true}

func runWalltime(pass *analysis.Pass) error {
	eng := taintEngineFor(pass)
	for _, f := range pass.Pkg.Files {
		for _, u := range analysis.Units(f) {
			for _, ev := range eng.analyze(u) {
				if ev.kind != evClockEscape {
					continue
				}
				src := ev.src
				if src == "" {
					src = "time.Now"
				}
				pass.Reportf(ev.pos, "wall-clock read %s %s: results must be a pure function of the spec; keep timings in time.Duration instrumentation columns, or take times in the CLI layer", src, ev.where)
			}
		}
	}
	return nil
}

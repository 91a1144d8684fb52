package lint

import (
	"repro/internal/lint/analysis"
)

// Dettaint tracks nondeterminism taint from its sources to result
// sinks in the result-producing packages and the spec fingerprint.
//
// Contract (DESIGN.md): repeat runs are bit-identical, and a run's
// fingerprint is a pure function of its spec. Three value sources break
// that if they reach a result: map iteration order (randomized per
// range statement — a float summed, or a slice appended, in map order
// differs between two runs of the same binary), the wall clock, and raw
// math/rand randomness (rngx is the sanctioned, seed-derived source).
// Dettaint follows the values: taint flows through locals, arithmetic,
// containers and calls (through their TaintFacts), and is reported
// where it lands in a sink —
//
//   - a write into a hash (the fingerprint/checkpoint identity);
//   - a value returned by an exported function (a result leaving the
//     package);
//   - a map-order or raw-rand value stored where it outlives the
//     function: a receiver or parameter field or element, a captured or
//     package variable, or the receiver of a method called with it.
//
// The sanctioned idioms sanitize: sorting a key slice clears its
// map-order taint (collect-sort-iterate, the sortedCounts idiom),
// key-indexed container writes and exact integer accumulation are
// order-insensitive and propagate nothing. Wall-clock values are a
// dettaint concern only at hash writes; their instrumentation lifecycle
// is walltime's contract.
var Dettaint = &analysis.Analyzer{
	Name: "dettaint",
	Doc:  "track map-order/wall-clock/raw-rand taint to returned results, stores that outlive the function, and fingerprint hash writes",
	Run:  runDettaint,
}

func runDettaint(pass *analysis.Pass) error {
	eng := taintEngineFor(pass)
	for _, f := range pass.SourceFiles() {
		for _, u := range analysis.Units(f) {
			for _, ev := range eng.analyze(u) {
				switch ev.kind {
				case evHashSink:
					where := ""
					if ev.where != "" {
						where = " " + ev.where
					}
					pass.Reportf(ev.pos, "nondeterministic value (%s) feeds the fingerprint/checkpoint hash%s: the hash must be a pure function of the spec; derive the bytes from sorted, seed-keyed inputs", taintLabel(ev), where)
				case evReturnSink:
					pass.Reportf(ev.pos, "nondeterministic value (%s) reaches the result returned by %s: results must be bit-identical across runs; collect and sort map keys (the sortedCounts idiom) or draw randomness from rngx", taintLabel(ev), ev.where)
				case evStoreEscape:
					pass.Reportf(ev.pos, "nondeterministic value (%s) is stored in %s: results must be bit-identical across runs; collect and sort map keys (the sortedCounts idiom) or draw randomness from rngx", taintLabel(ev), ev.where)
				}
			}
		}
	}
	return nil
}

// taintLabel names the taint source for a diagnostic, preferring the
// concrete source expression the engine recorded.
func taintLabel(ev taintEvent) string {
	if ev.src != "" {
		return ev.src
	}
	switch {
	case ev.kinds&taintMapOrder != 0:
		return "map iteration order"
	case ev.kinds&taintClock != 0:
		return "the wall clock"
	case ev.kinds&taintRand != 0:
		return "unseeded randomness"
	}
	return "nondeterministic input"
}

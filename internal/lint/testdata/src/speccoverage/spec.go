// Package speccoverage is the corpus for the fingerprint-coverage
// analyzer: every field reachable from a Fingerprint root must be
// hashed, whole-covered, or annotated //sopslint:nohash with a reason.
package speccoverage

import (
	"fmt"
	"hash/fnv"
	"io"

	"speccoverage/dep"
)

// Whole is hashed wholesale via %+v, so its fields need no per-field
// coverage.
type Whole struct {
	X int
	Y int
}

// Spec is the fingerprint subject under test.
type Spec struct {
	Name string
	K    int
	W    Whole
	Deep dep.Knobs
	T    tuning
	Skip int //sopslint:nohash derived from K at load time
	Bad  int /* want "needs a reason" */ //sopslint:nohash
	Miss int // want "field Spec.Miss is fingerprint-reachable but never hashed"
}

// tuning is an unexported part of the spec: its annotation is honoured
// through its NoHashFact like any other struct's.
type tuning struct {
	Rate  float64
	Trace bool //sopslint:nohash diagnostics switch, never read by the estimator
}

// Validate keeps Spec checkable before it keys any result.
func (s Spec) Validate() error {
	if s.K <= 0 {
		return fmt.Errorf("speccoverage: K must be positive")
	}
	return nil
}

// Fingerprint covers every knob except Miss — and dep.Knobs.Extra,
// which only the NoHashFact-aware cross-package walk can see.
func (s Spec) Fingerprint() uint64 { // want "field Knobs.Extra \\(package speccoverage/dep\\) is fingerprint-reachable but never hashed"
	h := fnv.New64a()
	fmt.Fprintf(h, "%s|%d|%g|", s.Name, s.K, s.T.Rate)
	fmt.Fprintf(h, "%+v|", s.W)
	writeDeep(h, s.Deep)
	return h.Sum64()
}

// writeDeep is in the fingerprint closure: its reads count as coverage.
func writeDeep(w io.Writer, k dep.Knobs) {
	fmt.Fprintf(w, "%d|", k.M)
}

// NoVal keys a fingerprint but cannot be checked before it runs.
type NoVal struct { // want "NoVal is a fingerprint subject but has no Validate method"
	A int
}

// NoValFingerprint is a free-function root over NoVal.
func NoValFingerprint(n NoVal) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d", n.A)
	return h.Sum64()
}

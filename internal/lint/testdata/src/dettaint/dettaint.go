// Package dettaint is the corpus for the dettaint analyzer:
// nondeterminism taint — map iteration order, the wall clock, raw
// math/rand randomness — is followed through locals, arithmetic,
// containers and calls, and flagged where it reaches a result returned
// by an exported function, storage that outlives the function, or a
// write into the fingerprint hash. The sanctioned idioms
// (collect-sort-iterate, key-indexed writes, exact integer
// accumulation, rngx-style seeded draws) pass without annotation.
package dettaint

import (
	"fmt"
	"hash"
	"hash/fnv"
	"math/rand"
	"sort"
	"time"
)

// KeysUnsorted ranges a map and returns the keys in iteration order —
// a different sequence every run.
func KeysUnsorted(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out // want "map iteration order.*reaches the result returned by KeysUnsorted"
}

// KeysSorted is the collect-sort-iterate idiom: the sort call
// sanitizes the slice, and what follows is deterministic.
func KeysSorted(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// SumFloat accumulates map values in floating point, where addition is
// not associative — the total depends on visit order.
func SumFloat(m map[string]float64) float64 {
	var sum float64
	for _, v := range m {
		sum += v
	}
	return sum // want "map iteration order.*reaches the result returned by SumFloat"
}

// SumInt accumulates in exact integer arithmetic, which is commutative
// and associative: order cannot show in the total.
func SumInt(m map[string]int) int {
	var sum int
	for _, v := range m {
		sum += v
	}
	return sum
}

// Reindex writes through the keys it ranges: every key lands in its
// own slot, so iteration order cannot show in the output map.
func Reindex(in map[string]int) map[string]int {
	out := make(map[string]int, len(in))
	for k, v := range in {
		out[k] = v
	}
	return out
}

// HashClock writes a clock-derived value into the fingerprint hash:
// the identity stops being a pure function of the spec.
func HashClock(h hash.Hash, start time.Time) {
	fmt.Fprintf(h, "%v", time.Since(start)) // want "time.Since.*feeds the fingerprint/checkpoint hash"
}

// HashSpec hashes only caller-supplied fields — the fingerprint idiom.
func HashSpec(name string, steps int) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "name=%s steps=%d;", name, steps)
	return h.Sum64()
}

// writeField is a package-local helper whose parameter reaches a hash
// write; the summary records the param→sink flow.
func writeField(h hash.Hash, s string) {
	fmt.Fprintf(h, "%s;", s)
}

// HashViaHelper feeds map-order-tainted keys to the hash one call
// deep — flagged at the call site through writeField's summary.
func HashViaHelper(h hash.Hash, m map[string]int) {
	for k := range m {
		writeField(h, k) // want "map iteration order.*feeds the fingerprint/checkpoint hash via writeField"
	}
}

// GlobalRand draws from the shared global source, which is not derived
// from the spec seed.
func GlobalRand() float64 {
	return rand.Float64() // want "rand.Float64.*reaches the result returned by GlobalRand"
}

// SeededRand draws from an explicit source the caller seeded — the
// rngx discipline; deterministic given the seed.
func SeededRand(seed int64) float64 {
	r := rand.New(rand.NewSource(seed))
	return r.Float64()
}

// scale is a package-local helper whose parameter flows to its result;
// LaunderedSum shows taint surviving the hop through its summary.
func scale(x float64) float64 {
	return 2 * x
}

func LaunderedSum(m map[string]float64) float64 {
	var sum float64
	for _, v := range m {
		sum += v
	}
	return scale(sum) // want "map iteration order.*reaches the result returned by LaunderedSum"
}

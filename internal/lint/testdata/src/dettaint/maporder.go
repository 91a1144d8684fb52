package dettaint

import (
	"math"
	"sort"
)

// This file holds the map-order loop shapes: a loop whose result
// depends on the randomized visit order is flagged where its value
// leaves the function — at the return of an exported function, or at
// the write that stores it somewhere that outlives the call.

// Sum accumulates a float in map order: the summation order is
// randomized per range statement, so the rounding differs between runs.
func Sum(m map[string]float64) float64 {
	var s float64
	for _, v := range m {
		s += v
	}
	return s // want "map iteration order.*reaches the result returned by Sum"
}

// Count accumulates an integer: exact and commutative, allowed.
func Count(m map[string]int) int {
	n := 0
	for _, v := range m {
		n += v
	}
	return n
}

// SortedSum is the sanctioned idiom: collect keys, sort, iterate sorted.
func SortedSum(m map[string]float64) float64 {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var s float64
	for _, k := range keys {
		s += m[k]
	}
	return s
}

// First returns from inside the iteration: which entry is first is
// randomized.
func First(m map[string]int) string {
	for k := range m {
		return k // want "map iteration order.*reaches the result returned by First"
	}
	return ""
}

// Values appends non-key values to a slice in map order.
func Values(m map[string]float64) []float64 {
	var out []float64
	for _, v := range m {
		out = append(out, v)
	}
	return out // want "map iteration order.*reaches the result returned by Values"
}

// Double writes entries indexed by the range key: distinct keys, so the
// writes commute. Allowed.
func Double(m map[string]int) map[string]int {
	out := make(map[string]int, len(m))
	for k, v := range m {
		out[k] = 2 * v
	}
	return out
}

// LoopLocal confines all order-dependent state to the iteration: the
// scratch dies with each entry. Allowed.
func LoopLocal(m map[string][]float64) int {
	total := 0
	for _, vs := range m {
		s := 0.0
		for _, v := range vs {
			s += v
		}
		if s > 0 {
			total++
		}
	}
	return total
}

// Max assigns a float in map order: ties resolve to a randomized
// winner.
func Max(m map[string]float64) float64 {
	best := 0.0
	for _, v := range m {
		if v > best {
			best = v
		}
	}
	return best // want "map iteration order.*reaches the result returned by Max"
}

// SubsampleMean averages per-sample ψ-terms keyed by drawn index in map
// order: float rounding then depends on the iteration order, so a
// subsampled estimate would differ between repeat runs even with an
// identical draw. The estimator keeps the terms in a slice in draw
// order instead.
func SubsampleMean(terms map[int]float64) float64 {
	var s float64
	for _, t := range terms {
		s += t
	}
	return s / float64(len(terms)) // want "map iteration order.*reaches the result returned by SubsampleMean"
}

// SubsampleMeanOrdered is the sanctioned form of the same reduction:
// the draw order is part of the estimator's contract, so the terms live
// in a slice and the mean is a fixed-order sum.
func SubsampleMeanOrdered(terms []float64) float64 {
	var s float64
	for _, t := range terms {
		s += t
	}
	return s / float64(len(terms))
}

// SubsampleCI collects per-index deviation terms from a weights map in
// map order: the term list — and the CI computed from it — would come
// out in a different order each run.
func SubsampleCI(weights map[int]float64) []float64 {
	var devs []float64
	for _, w := range weights {
		devs = append(devs, w*w)
	}
	return devs // want "map iteration order.*reaches the result returned by SubsampleCI"
}

// JointEntropy is the shape of a fixed joint-entropy bug: the counts
// are collected in map order and summed in floating point downstream,
// so the entropy's rounding follows the visit order.
func JointEntropy(joint map[string]int) float64 {
	counts := make([]int, 0, len(joint))
	for _, c := range joint {
		counts = append(counts, c)
	}
	return EntropyFromCounts(counts) // want "map iteration order.*reaches the result returned by JointEntropy"
}

// EntropyFromCounts is the plug-in entropy of a count vector, a float
// sum in slice order: deterministic for a deterministic slice.
func EntropyFromCounts(counts []int) float64 {
	total := 0
	for _, c := range counts {
		total += c
	}
	h := 0.0
	for _, c := range counts {
		if c > 0 {
			p := float64(c) / float64(total)
			h -= p * math.Log(p)
		}
	}
	return h
}

// Accumulator keeps running totals across calls.
type Accumulator struct {
	sum   float64
	count int
}

// AddAll accumulates a float into the receiver in map order: the field
// outlives the call, and its rounding follows the visit order.
func (a *Accumulator) AddAll(m map[string]float64) {
	for _, v := range m {
		a.sum += v // want "map iteration order.*is stored in a.sum, which outlives AddAll"
	}
}

// CountAll accumulates an integer into the receiver: exact and
// commutative, allowed.
func (a *Accumulator) CountAll(m map[string]int) {
	for _, n := range m {
		a.count += n
	}
}

// Fill writes map values by position into the caller's slice: which
// value lands in out[0] is randomized.
func Fill(out []float64, m map[string]float64) {
	i := 0
	for _, v := range m {
		out[i] = v // want "map iteration order.*is stored in out\\[i\\], which outlives Fill"
		i++
	}
}

// FillByKey writes through the range key into the caller's map: each
// key lands in its own entry. Allowed.
func FillByKey(out, m map[string]float64) {
	for k, v := range m {
		out[k] = v
	}
}

// Summer accumulates through its methods.
type Summer struct{ total float64 }

// Add adds v to the running total.
func (s *Summer) Add(v float64) { s.total += v }

// Total returns the running total.
func (s *Summer) Total() float64 { return s.total }

// MethodSum accumulates map values through a method call: the
// receiver carries the visit order to the result.
func MethodSum(m map[string]float64) float64 {
	var acc Summer
	for _, v := range m {
		acc.Add(v)
	}
	return acc.Total() // want "map iteration order.*reaches the result returned by MethodSum"
}

// Ledger posts into a Summer it owns.
type Ledger struct{ s Summer }

// Post accumulates through a method on a receiver field, which
// outlives the call.
func (l *Ledger) Post(m map[string]float64) {
	for _, v := range m {
		l.s.Add(v) // want "map iteration order.*is stored in l.s \\(via Add\\), which outlives Post"
	}
}

var lastSeen string

// Remember stores a map-order key in a package variable.
func Remember(m map[string]int) {
	for k := range m {
		lastSeen = k // want "map iteration order.*is stored in lastSeen, which outlives Remember"
	}
}

// Collect writes by position into its named result: the bare return
// is the one place the order leaves the function.
func Collect(m map[string]float64) (out []float64) {
	out = make([]float64, len(m))
	i := 0
	for _, v := range m {
		out[i] = v
		i++
	}
	return // want "map iteration order.*reaches the result returned by Collect"
}

// CapturedSum accumulates from a function literal into a variable of
// the enclosing function, which outlives the literal.
func CapturedSum(m map[string]float64) float64 {
	var s float64
	add := func() {
		for _, v := range m {
			s += v // want "map iteration order.*is stored in s, which outlives function literal"
		}
	}
	add()
	return s
}

// appendValues appends map values to its own parameter: the parameter
// is the callee's copy, so only its return carries the order out.
func appendValues(dst []float64, m map[string]float64) []float64 {
	for _, v := range m {
		dst = append(dst, v)
	}
	return dst
}

// ValuesVia returns map values collected by a helper, whose summary
// carries the order to this result.
func ValuesVia(m map[string]float64) []float64 {
	return appendValues(nil, m) // want "map iteration order.*reaches the result returned by ValuesVia"
}

// keysVia hands back keysInOrder's result: its own summary sees the
// order only through keysInOrder's summary, one local call hop away.
func keysVia(m map[string]int) []string { return keysInOrder(m) }

func keysInOrder(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}

// KeysTwoHops is flagged through both summaries.
func KeysTwoHops(m map[string]int) []string {
	return keysVia(m) // want "map iteration order.*reaches the result returned by KeysTwoHops"
}

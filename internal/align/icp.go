package align

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/vec"
)

// Options configures the ICP alignment.
type Options struct {
	// MaxIterations bounds the ICP loop; 0 means the default (50).
	MaxIterations int
	// Tolerance stops the loop when the RMS correspondence distance
	// improves by less than this between iterations; 0 means the
	// default (1e-9).
	Tolerance float64
	// Restarts is the number of initial rotations tried (evenly spaced
	// in [0, 2π)); ICP converges to the nearest local optimum, so a few
	// restarts make the alignment robust to large relative rotations.
	// 0 means the default (8).
	Restarts int
}

func (o Options) withDefaults() Options {
	if o.MaxIterations == 0 {
		o.MaxIterations = 50
	}
	if o.Tolerance == 0 {
		o.Tolerance = 1e-9
	}
	if o.Restarts == 0 {
		o.Restarts = 8
	}
	return o
}

// Result reports an ICP alignment.
type Result struct {
	// Transform maps the original moving cloud onto the reference.
	Transform Rigid
	// Aligned is the moving cloud after the transform, in the original
	// particle order.
	Aligned []vec.Vec2
	// Perm maps reference slots to moving particles: Perm[j] = i means
	// moving particle i corresponds to reference particle j. It is a
	// bijection that never crosses types (an element of S*_n).
	Perm []int
	// RMS is the final root-mean-square distance between matched pairs.
	RMS float64
	// Iterations is the total ICP iterations over all restarts.
	Iterations int
}

// Reordered returns the aligned moving cloud re-indexed to reference slots:
// out[j] is the aligned position of the moving particle matched to
// reference particle j. This is the w-representation of Sec. 5.2 — after
// this step, "particles close to each other in different samples at the
// same time are considered to represent the same particle".
func (r Result) Reordered() []vec.Vec2 {
	out := make([]vec.Vec2, len(r.Aligned))
	for j, i := range r.Perm {
		out[j] = r.Aligned[i]
	}
	return out
}

// Aligner runs ICP alignments with reusable scratch storage. A zero Aligner
// is ready to use; after the first call, further alignments of same-sized
// configurations perform (almost) no heap allocation, which matters when an
// ensemble pipeline aligns tens of thousands of frames. An Aligner is not
// safe for concurrent use — give each worker goroutine its own.
type Aligner struct {
	mov, ref []vec.Vec2
	rotated  []vec.Vec2
	matched  []vec.Vec2
	aligned  []vec.Vec2
	perm     []int
	order    []int
	sameType [][]int // sameType[i]: particle i's type members, in a.order
	typeSort typeSorter
	pairs    []icpPair
	pairSort pairSorter
	usedI    []bool
	usedJ    []bool

	movCentroid, refCentroid vec.Vec2
}

// ICP aligns the moving configuration onto the reference configuration,
// both with the same type multiset (same number of particles of each type),
// and returns the recovered isometry, the aligned cloud, and a type-
// respecting one-to-one correspondence.
//
// Both clouds are first centred (factoring out translation); each restart
// then iterates nearest-neighbour correspondence within each particle type
// against the rotation solved in closed form by Procrustes2D, until the RMS
// stops improving. The restart with the lowest final matching cost wins.
// The final permutation is produced by a greedy minimum-distance matching
// within each type, which unlike raw nearest-neighbour output is guaranteed
// to be a bijection.
//
// The paper finds correspondences in R³, lifting each particle's type to a
// third coordinate a magnitude larger than the collective's diameter so
// that matches never cross types (Sec. 5.2). Scanning the query's own type
// in the plane is that search exactly: a same-type lifted distance adds
// 0² to the planar one, every cross-type one exceeds any same-type one,
// and both break ties toward the smaller reference index.
func ICP(moving, reference []vec.Vec2, types []int, opt Options) (Result, error) {
	var a Aligner
	return a.ICP(moving, reference, types, opt)
}

// ICP is the scratch-reusing form of the package-level ICP. The returned
// Result's slices are freshly allocated and caller-owned.
func (a *Aligner) ICP(moving, reference []vec.Vec2, types []int, opt Options) (Result, error) {
	theta, iters, err := a.icp(moving, reference, types, opt)
	if err != nil {
		return Result{}, err
	}
	aligned := append([]vec.Vec2(nil), a.aligned...)
	perm := append([]int(nil), a.perm...)

	var sumD2 float64
	for j, i := range perm {
		sumD2 += aligned[i].Dist2(a.ref[j])
	}

	// Full transform in original coordinates:
	// x ↦ R(θ)·(x − movCentroid) + refCentroid.
	transform := Rigid{Theta: theta, T: a.refCentroid.Sub(a.movCentroid.Rotate(theta))}
	return Result{
		Transform:  transform,
		Aligned:    aligned,
		Perm:       perm,
		RMS:        math.Sqrt(sumD2 / float64(len(moving))),
		Iterations: iters,
	}, nil
}

// AlignReorderedInto aligns moving onto reference and writes the reordered
// aligned cloud directly into dst: dst[j] is the aligned position of the
// moving particle matched to reference slot j (the w-representation of
// Sec. 5.2). dst must have length len(reference). This is the zero-copy
// path of the streaming observer accumulator: no intermediate Result is
// materialised and, after scratch warm-up, the call is allocation-free.
func (a *Aligner) AlignReorderedInto(dst []vec.Vec2, moving, reference []vec.Vec2, types []int, opt Options) error {
	if len(dst) != len(reference) {
		return fmt.Errorf("align: dst has %d slots, reference %d", len(dst), len(reference))
	}
	if _, _, err := a.icp(moving, reference, types, opt); err != nil {
		return err
	}
	for j, i := range a.perm {
		dst[j] = a.aligned[i]
	}
	return nil
}

// nearest returns the reference particle of particle i's type closest to
// q, and the squared distance; ties go to the smaller index.
func (a *Aligner) nearest(i int, q vec.Vec2) (int, float64) {
	same := a.sameType[i]
	best, bestD2 := same[0], a.ref[same[0]].Dist2(q)
	for _, j := range same[1:] {
		if d2 := a.ref[j].Dist2(q); d2 < bestD2 {
			best, bestD2 = j, d2
		}
	}
	return best, bestD2
}

// icp runs the full alignment into the scratch buffers: afterwards
// a.aligned holds the rotated moving cloud (original particle order) and
// a.perm the type-respecting bijection. It returns the winning rotation
// angle and the total iteration count.
func (a *Aligner) icp(moving, reference []vec.Vec2, types []int, opt Options) (float64, int, error) {
	if len(moving) != len(reference) {
		return 0, 0, fmt.Errorf("align: moving has %d points, reference %d", len(moving), len(reference))
	}
	if len(types) != len(moving) {
		return 0, 0, fmt.Errorf("align: %d types for %d points", len(types), len(moving))
	}
	if len(moving) == 0 {
		return 0, 0, fmt.Errorf("align: empty configuration")
	}
	if err := checkTypeMultiset(types); err != nil {
		return 0, 0, err
	}
	opt = opt.withDefaults()

	a.mov = append(a.mov[:0], moving...)
	a.ref = append(a.ref[:0], reference...)
	a.movCentroid = vec.Center(a.mov)
	a.refCentroid = vec.Center(a.ref)
	mov, ref := a.mov, a.ref

	a.groupByType(types)

	bestTheta, bestCost := 0.0, math.Inf(1)
	totalIters := 0
	a.matched = grow(a.matched, len(mov))
	a.rotated = grow(a.rotated, len(mov))
	matched, rotated := a.matched, a.rotated

	for restart := 0; restart < opt.Restarts; restart++ {
		theta := 2 * math.Pi * float64(restart) / float64(opt.Restarts)
		prevRMS := math.Inf(1)
		for iter := 0; iter < opt.MaxIterations; iter++ {
			totalIters++
			rot := vec.Rotation(theta)
			for i, p := range mov {
				rotated[i] = rot.Apply(p)
			}
			// Correspondence within each type.
			var sumD2 float64
			for i, p := range rotated {
				j, d2 := a.nearest(i, p)
				matched[i] = ref[j]
				sumD2 += d2
			}
			rms := math.Sqrt(sumD2 / float64(len(mov)))
			// Re-solve the rotation against the current matches.
			// The incremental rotation is composed into theta;
			// translation is ignored because both clouds are
			// centred and the matching is (near-)balanced.
			delta := Procrustes2D(rotated, matched)
			theta += delta.Theta
			if prevRMS-rms < opt.Tolerance {
				break
			}
			prevRMS = rms
		}
		// Score this restart by its final matching cost.
		var cost float64
		rot := vec.Rotation(theta)
		for i, p := range mov {
			_, d2 := a.nearest(i, rot.Apply(p))
			cost += d2
		}
		if cost < bestCost {
			bestCost, bestTheta = cost, theta
		}
	}

	a.aligned = grow(a.aligned, len(moving))
	rot := vec.Rotation(bestTheta)
	for i, p := range mov {
		a.aligned[i] = rot.Apply(p)
	}
	a.matchByType(a.aligned, ref)
	return bestTheta, totalIters, nil
}

func checkTypeMultiset(types []int) error {
	for _, t := range types {
		if t < 0 {
			return fmt.Errorf("align: negative type %d", t)
		}
	}
	return nil
}

type icpPair struct {
	d2   float64
	i, j int // moving index, reference index
}

// pairSorter orders candidate pairs by distance with deterministic index
// tie-breaks — a reusable sort.Interface so the per-frame matching does not
// allocate a closure and swapper the way sort.Slice would.
type pairSorter struct{ pairs []icpPair }

func (p *pairSorter) Len() int      { return len(p.pairs) }
func (p *pairSorter) Swap(a, b int) { p.pairs[a], p.pairs[b] = p.pairs[b], p.pairs[a] }
func (p *pairSorter) Less(a, b int) bool {
	pa, pb := p.pairs[a], p.pairs[b]
	if pa.d2 != pb.d2 {
		return pa.d2 < pb.d2
	}
	if pa.i != pb.i {
		return pa.i < pb.i
	}
	return pa.j < pb.j
}

// typeSorter orders particle indices by (type, index) so same-type
// particles form contiguous runs — constant scratch for any type ids,
// where a dense per-type bucket array would scale with the largest id and
// a map would allocate per frame.
type typeSorter struct {
	idx   []int
	types []int
}

func (s *typeSorter) Len() int      { return len(s.idx) }
func (s *typeSorter) Swap(a, b int) { s.idx[a], s.idx[b] = s.idx[b], s.idx[a] }
func (s *typeSorter) Less(a, b int) bool {
	ta, tb := s.types[s.idx[a]], s.types[s.idx[b]]
	if ta != tb {
		return ta < tb
	}
	return s.idx[a] < s.idx[b]
}

// groupByType sorts the particle indices by (type, index) into a.order,
// so each type's members form one run in increasing index order, and
// points a.sameType[i] at particle i's run.
func (a *Aligner) groupByType(types []int) {
	n := len(types)
	a.order = grow(a.order, n)
	for i := range a.order {
		a.order[i] = i
	}
	a.typeSort = typeSorter{idx: a.order, types: types}
	sort.Sort(&a.typeSort)
	a.sameType = grow(a.sameType, n)
	for lo := 0; lo < n; {
		hi := lo + 1
		for hi < n && types[a.order[hi]] == types[a.order[lo]] {
			hi++
		}
		for _, i := range a.order[lo:hi] {
			a.sameType[i] = a.order[lo:hi]
		}
		lo = hi
	}
}

// matchByType produces a type-respecting bijection between the moving and
// reference clouds into a.perm: perm[j] = i. Within each type it runs a
// greedy minimum-distance matching (repeatedly pairing the globally closest
// unmatched moving/reference pair), which is O(n² log n) per type and is a
// strict improvement over the raw many-to-one nearest-neighbour output of
// the ICP correspondence step. Types are processed in increasing order; the
// result is identical to any other order because the per-type matchings
// write disjoint permutation slots. It reuses groupByType's runs.
func (a *Aligner) matchByType(moving, reference []vec.Vec2) {
	n := len(moving)
	a.perm = grow(a.perm, n)
	a.usedI = grow(a.usedI, n)
	a.usedJ = grow(a.usedJ, n)
	for lo := 0; lo < n; {
		idx := a.sameType[a.order[lo]] // one type's members, in increasing index order
		lo += len(idx)
		a.pairs = a.pairs[:0]
		for _, i := range idx {
			for _, j := range idx {
				a.pairs = append(a.pairs, icpPair{moving[i].Dist2(reference[j]), i, j})
			}
		}
		a.pairSort.pairs = a.pairs
		sort.Sort(&a.pairSort)
		for _, i := range idx {
			a.usedI[i] = false
			a.usedJ[i] = false
		}
		for _, p := range a.pairs {
			if a.usedI[p.i] || a.usedJ[p.j] {
				continue
			}
			a.usedI[p.i] = true
			a.usedJ[p.j] = true
			a.perm[p.j] = p.i
		}
	}
}

// grow returns s resliced to length n, reallocating only when the
// capacity is insufficient. Contents are unspecified.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

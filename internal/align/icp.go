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
	bounds   []bound   // per moving particle, for the bounded search
	heap     []icpPair // the lazy greedy matching's candidates
	pairs    []icpPair // the sorted greedy's pairs, for non-finite types
	pairSort pairSorter
	usedI    []bool
	usedJ    []bool

	// boundFrom is the shortest type run nearest searches with bounds in
	// this alignment, and margin the rounding slack of those bounds.
	boundFrom int
	margin    float64

	movCentroid, refCentroid vec.Vec2
}

// boundedRunMin is the shortest type run whose correspondences the
// bounded search finds; shorter runs scan. BenchmarkAlignFrames measured
// the bounded search slower than the scan on the Fig. 8 frames at l = 10
// (type runs of 2) and the Fig. 11 frames (runs of 4), and faster on the
// Fig. 8 frames at l = 3 (runs of 6 and 7), the Fig. 4 frames (16 and
// 17) and the Fig. 8 frames at l = 1 (20); DESIGN.md, "ICP
// implementation", lists the rows.
const boundedRunMin = 6

// bound is what the bounded search keeps of a moving particle between
// its correspondence queries: the reference j its last full scan found
// nearest, a lower bound lb on its distance at that scan to every other
// reference of its type, the rotation angle theta of that scan, and the
// particle's distance norm from the centroid.
type bound struct {
	j               int // -1 before the alignment's first scan
	lb, theta, norm float64
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
	theta, iters, err := a.icp(moving, reference, types, opt, boundedRunMin)
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
	if _, _, err := a.icp(moving, reference, types, opt, boundedRunMin); err != nil {
		return err
	}
	for j, i := range a.perm {
		dst[j] = a.aligned[i]
	}
	return nil
}

// nearest returns the reference particle of particle i's type closest to
// q, particle i rotated by theta, and the squared distance; ties go to the
// smaller index. A type run at least a.boundFrom long takes the bounded
// search, which returns what this scan would.
func (a *Aligner) nearest(i int, q vec.Vec2, theta float64) (int, float64) {
	same := a.sameType[i]
	if len(same) >= a.boundFrom {
		return a.boundedNearest(i, q, theta)
	}
	best, bestD2 := same[0], a.ref[same[0]].Dist2(q)
	for _, j := range same[1:] {
		if d2 := a.ref[j].Dist2(q); d2 < bestD2 {
			best, bestD2 = j, d2
		}
	}
	return best, bestD2
}

// boundedNearest is nearest with Hamerly's bound (Hamerly 2010, "Making
// k-means even faster") on the scan. Since particle i's last full scan at
// angle b.theta, its rotated position has moved by at most
// b.norm·|theta − b.theta|, so every other reference of its type is at
// least b.lb minus that far away. If the reference the scan found is
// nearer than that, the scan would find it again, strictly nearest, and
// its squared distance is the scan's own expression. Otherwise it scans,
// keeping the best and second-best distances. b.lb carries a.margin, the
// rounding slack, so the bound holds for the computed distances the scan
// compares, not just for the exact ones; DESIGN.md gives the argument.
// Every comparison with a NaN fails, so NaN takes the scan.
func (a *Aligner) boundedNearest(i int, q vec.Vec2, theta float64) (int, float64) {
	b := &a.bounds[i]
	if b.j >= 0 {
		d2 := a.ref[b.j].Dist2(q)
		if lb := b.lb - b.norm*math.Abs(theta-b.theta); lb > 0 && d2 < lb*lb {
			return b.j, d2
		}
	}
	same := a.sameType[i]
	best, bestD2, second := same[0], a.ref[same[0]].Dist2(q), math.Inf(1)
	for _, j := range same[1:] {
		d2 := a.ref[j].Dist2(q)
		if d2 < bestD2 {
			best, bestD2, second = j, d2, bestD2
		} else if d2 < second {
			second = d2
		}
	}
	b.j, b.lb, b.theta = best, math.Sqrt(second)-a.margin, theta
	return best, bestD2
}

// icp runs the full alignment into the scratch buffers: afterwards
// a.aligned holds the rotated moving cloud (original particle order) and
// a.perm the type-respecting bijection. It returns the winning rotation
// angle and the total iteration count. Type runs at least boundFrom long
// take the bounded search; the result does not depend on it.
func (a *Aligner) icp(moving, reference []vec.Vec2, types []int, opt Options, boundFrom int) (float64, int, error) {
	if err := a.load(moving, reference, types, boundFrom); err != nil {
		return 0, 0, err
	}
	opt = opt.withDefaults()
	mov, ref := a.mov, a.ref

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
				j, d2 := a.nearest(i, p, theta)
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
			_, d2 := a.nearest(i, rot.Apply(p), theta)
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

// load validates an alignment's input and readies the scratch for it:
// both clouds copied and centred, the particles grouped by type, and the
// bounded search reset. It searches with bounds only where every
// coordinate is finite and below 2^400 in magnitude, so no squared
// distance overflows; their margin is 2^-44 (512 unit roundoffs) of the
// largest coordinate, plus 2^-500 for underflow.
func (a *Aligner) load(moving, reference []vec.Vec2, types []int, boundFrom int) error {
	if len(moving) != len(reference) {
		return fmt.Errorf("align: moving has %d points, reference %d", len(moving), len(reference))
	}
	if len(types) != len(moving) {
		return fmt.Errorf("align: %d types for %d points", len(types), len(moving))
	}
	if len(moving) == 0 {
		return fmt.Errorf("align: empty configuration")
	}
	if err := checkTypeMultiset(types); err != nil {
		return err
	}
	a.mov = append(a.mov[:0], moving...)
	a.ref = append(a.ref[:0], reference...)
	a.movCentroid = vec.Center(a.mov)
	a.refCentroid = vec.Center(a.ref)
	longest := a.groupByType(types)

	a.boundFrom = math.MaxInt
	if longest < boundFrom {
		return nil
	}
	a.bounds = grow(a.bounds, len(moving))
	largest := 0.0
	for i, p := range a.mov {
		a.bounds[i] = bound{j: -1, norm: math.Sqrt(p.Norm2())}
		largest = max(largest, math.Abs(p.X), math.Abs(p.Y))
	}
	for _, p := range a.ref {
		largest = max(largest, math.Abs(p.X), math.Abs(p.Y))
	}
	if largest < 0x1p400 { // false for NaN too
		a.boundFrom, a.margin = boundFrom, 0x1p-44*largest+0x1p-500
	}
	return nil
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

// less orders candidate pairs by distance with deterministic index
// tie-breaks: by d², then the moving index, then the reference index.
func (p icpPair) less(q icpPair) bool {
	if p.d2 != q.d2 {
		return p.d2 < q.d2
	}
	if p.i != q.i {
		return p.i < q.i
	}
	return p.j < q.j
}

// pairSorter sorts candidate pairs by less — a reusable sort.Interface so
// the per-frame matching does not allocate a closure and swapper the way
// sort.Slice would.
type pairSorter struct{ pairs []icpPair }

func (p *pairSorter) Len() int           { return len(p.pairs) }
func (p *pairSorter) Swap(a, b int)      { p.pairs[a], p.pairs[b] = p.pairs[b], p.pairs[a] }
func (p *pairSorter) Less(a, b int) bool { return p.pairs[a].less(p.pairs[b]) }

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
// points a.sameType[i] at particle i's run. It returns the longest run's
// length.
func (a *Aligner) groupByType(types []int) (longest int) {
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
		longest = max(longest, hi-lo)
		lo = hi
	}
	return longest
}

// matchByType produces a type-respecting bijection between the moving and
// reference clouds into a.perm: perm[j] = i. Within each type it runs a
// greedy minimum-distance matching: it repeatedly pairs the unmatched
// moving and reference particles that are closest, ties broken toward the
// smaller moving, then reference index. That is a strict improvement over
// the raw many-to-one nearest-neighbour output of the ICP correspondence
// step. Types are processed in increasing order; the result is identical
// to any other order because the per-type matchings write disjoint
// permutation slots. It reuses groupByType's runs.
func (a *Aligner) matchByType(moving, reference []vec.Vec2) {
	n := len(moving)
	a.perm = grow(a.perm, n)
	a.usedI = grow(a.usedI, n)
	a.usedJ = grow(a.usedJ, n)
	for lo := 0; lo < n; {
		idx := a.sameType[a.order[lo]] // one type's members, in increasing index order
		lo += len(idx)
		for _, i := range idx {
			a.usedI[i] = false
			a.usedJ[i] = false
		}
		if finite(moving, idx) && finite(reference, idx) {
			a.lazyGreedy(moving, reference, idx)
		} else {
			a.sortedGreedy(moving, reference, idx)
		}
	}
}

// lazyGreedy is the greedy matching of one type's members idx, driven by
// a min-heap that holds, for each unmatched moving particle i, its
// nearest free reference j as a (d², i, j) entry, the key the pairs are
// ordered by. A popped entry whose j is free is the least pair over the
// unmatched moving and free reference particles, the pair the greedy
// takes next; one whose j was taken is recomputed over the free
// references and pushed back. DESIGN.md, "ICP implementation", gives the
// argument. With a NaN distance the key is no order, so types with a
// non-finite coordinate take sortedGreedy.
func (a *Aligner) lazyGreedy(moving, reference []vec.Vec2, idx []int) {
	a.heap = a.heap[:0]
	for _, i := range idx {
		a.heap = append(a.heap, a.nearestFree(moving, reference, i, idx))
	}
	for k := len(a.heap)/2 - 1; k >= 0; k-- {
		a.siftDown(k)
	}
	for len(a.heap) > 0 {
		p := a.heap[0]
		if a.usedJ[p.j] {
			a.heap[0] = a.nearestFree(moving, reference, p.i, idx)
		} else {
			a.usedJ[p.j] = true
			a.perm[p.j] = p.i
			last := len(a.heap) - 1
			a.heap[0] = a.heap[last]
			a.heap = a.heap[:last]
		}
		a.siftDown(0)
	}
}

// nearestFree returns moving particle i's least pair over the free
// reference particles of idx: the smallest d², ties to the smaller j.
func (a *Aligner) nearestFree(moving, reference []vec.Vec2, i int, idx []int) icpPair {
	best := icpPair{d2: math.Inf(1), i: i, j: -1}
	for _, j := range idx {
		if a.usedJ[j] {
			continue
		}
		if d2 := moving[i].Dist2(reference[j]); best.j < 0 || d2 < best.d2 {
			best.d2, best.j = d2, j
		}
	}
	return best
}

// siftDown restores the heap order below slot k.
func (a *Aligner) siftDown(k int) {
	h := a.heap
	for {
		c := 2*k + 1
		if c >= len(h) {
			return
		}
		if c+1 < len(h) && h[c+1].less(h[c]) {
			c++
		}
		if !h[c].less(h[k]) {
			return
		}
		h[k], h[c] = h[c], h[k]
		k = c
	}
}

// sortedGreedy is the greedy matching of one type's members idx by a sort
// of all their pairs, which fixes an order even where a NaN distance
// leaves the key none.
func (a *Aligner) sortedGreedy(moving, reference []vec.Vec2, idx []int) {
	a.pairs = a.pairs[:0]
	for _, i := range idx {
		for _, j := range idx {
			a.pairs = append(a.pairs, icpPair{moving[i].Dist2(reference[j]), i, j})
		}
	}
	a.pairSort.pairs = a.pairs
	sort.Sort(&a.pairSort)
	for _, p := range a.pairs {
		if a.usedI[p.i] || a.usedJ[p.j] {
			continue
		}
		a.usedI[p.i] = true
		a.usedJ[p.j] = true
		a.perm[p.j] = p.i
	}
}

// finite reports whether every coordinate of pts[idx] is finite.
func finite(pts []vec.Vec2, idx []int) bool {
	for _, i := range idx {
		if !pts[i].IsFinite() {
			return false
		}
	}
	return true
}

// grow returns s resliced to length n, reallocating only when the
// capacity is insufficient. Contents are unspecified.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

package align

import (
	"math"
	"math/rand/v2"
	"testing"

	"repro/internal/vec"
)

func randomCloud(r *rand.Rand, n int, extent float64) []vec.Vec2 {
	pts := make([]vec.Vec2, n)
	for i := range pts {
		pts[i] = vec.Vec2{X: (r.Float64() - 0.5) * extent, Y: (r.Float64() - 0.5) * extent}
	}
	return pts
}

func normalizeAngle(a float64) float64 {
	for a > math.Pi {
		a -= 2 * math.Pi
	}
	for a < -math.Pi {
		a += 2 * math.Pi
	}
	return a
}

func TestRigidApplyComposeInverse(t *testing.T) {
	r := rand.New(rand.NewPCG(1, 2))
	for trial := 0; trial < 200; trial++ {
		g := Rigid{Theta: r.Float64() * 2 * math.Pi, T: vec.Vec2{X: r.Float64() * 10, Y: r.Float64() * 10}}
		h := Rigid{Theta: r.Float64() * 2 * math.Pi, T: vec.Vec2{X: r.Float64() * 10, Y: r.Float64() * 10}}
		p := vec.Vec2{X: r.Float64()*4 - 2, Y: r.Float64()*4 - 2}
		// Compose: (g then h)(p) == h(g(p)).
		if g.Compose(h).Apply(p).Dist(h.Apply(g.Apply(p))) > 1e-9 {
			t.Fatal("Compose broken")
		}
		// Inverse: g⁻¹(g(p)) == p.
		if g.Inverse().Apply(g.Apply(p)).Dist(p) > 1e-9 {
			t.Fatal("Inverse broken")
		}
	}
}

func TestRigidApplyAll(t *testing.T) {
	g := Rigid{Theta: math.Pi / 2, T: vec.Vec2{X: 1}}
	out := g.ApplyAll([]vec.Vec2{v2(1, 0), v2(0, 1)})
	if out[0].Dist(vec.Vec2{X: 1, Y: 1}) > 1e-12 {
		t.Fatalf("ApplyAll[0] = %v", out[0])
	}
	if out[1].Dist(vec.Vec2{X: 0, Y: 0}) > 1e-12 {
		t.Fatalf("ApplyAll[1] = %v", out[1])
	}
}

// Property: Procrustes recovers a planted rigid motion exactly when the
// correspondence is known.
func TestProcrustesRecoversPlantedTransform(t *testing.T) {
	r := rand.New(rand.NewPCG(3, 4))
	for trial := 0; trial < 100; trial++ {
		src := randomCloud(r, 3+r.IntN(40), 10)
		g := Rigid{
			Theta: r.Float64()*2*math.Pi - math.Pi,
			T:     vec.Vec2{X: r.Float64()*20 - 10, Y: r.Float64()*20 - 10},
		}
		dst := g.ApplyAll(src)
		got := Procrustes2D(src, dst)
		if math.Abs(normalizeAngle(got.Theta-g.Theta)) > 1e-9 {
			t.Fatalf("theta = %v, want %v", got.Theta, g.Theta)
		}
		for i := range src {
			if got.Apply(src[i]).Dist(dst[i]) > 1e-9 {
				t.Fatal("recovered transform does not map src onto dst")
			}
		}
	}
}

func TestProcrustesLeastSquaresUnderNoise(t *testing.T) {
	// With noisy correspondences the recovered rotation should still be
	// close, and the residual must be no worse than the planted one.
	r := rand.New(rand.NewPCG(5, 6))
	src := randomCloud(r, 60, 10)
	g := Rigid{Theta: 0.7, T: vec.Vec2{X: 2, Y: -1}}
	dst := g.ApplyAll(src)
	for i := range dst {
		dst[i] = dst[i].Add(vec.Vec2{X: r.NormFloat64() * 0.01, Y: r.NormFloat64() * 0.01})
	}
	got := Procrustes2D(src, dst)
	if math.Abs(normalizeAngle(got.Theta-0.7)) > 0.01 {
		t.Fatalf("theta = %v, want ≈ 0.7", got.Theta)
	}
	if RMSD(got.ApplyAll(src), dst) > 0.02 {
		t.Fatal("residual too large")
	}
}

func TestProcrustesDegenerate(t *testing.T) {
	// All points coincident: pure translation.
	src := []vec.Vec2{v2(1, 1), v2(1, 1)}
	dst := []vec.Vec2{v2(4, 5), v2(4, 5)}
	g := Procrustes2D(src, dst)
	if g.Theta != 0 {
		t.Fatalf("degenerate rotation = %v", g.Theta)
	}
	if g.Apply(src[0]).Dist(dst[0]) > 1e-12 {
		t.Fatal("degenerate translation wrong")
	}
	// Empty input.
	if g := Procrustes2D(nil, nil); g.Theta != 0 || g.T != (vec.Vec2{}) {
		t.Fatal("empty Procrustes should be identity")
	}
}

func TestProcrustesMismatchedLengthsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("length mismatch should panic")
		}
	}()
	Procrustes2D(make([]vec.Vec2, 2), make([]vec.Vec2, 3))
}

func TestRMSD(t *testing.T) {
	a := []vec.Vec2{v2(0, 0), v2(1, 0)}
	b := []vec.Vec2{v2(0, 1), v2(1, 1)}
	if got := RMSD(a, b); math.Abs(got-1) > 1e-12 {
		t.Fatalf("RMSD = %v, want 1", got)
	}
	if RMSD(nil, nil) != 0 {
		t.Fatal("empty RMSD should be 0")
	}
}

// --- ICP ------------------------------------------------------------------

// Property: ICP undoes a planted element of F = ISO⁺(2) × S*_n — the core
// guarantee the Sec. 5.2 preprocessing needs.
func TestICPRecoversPlantedSymmetry(t *testing.T) {
	r := rand.New(rand.NewPCG(7, 8))
	for trial := 0; trial < 20; trial++ {
		n := 10 + r.IntN(30)
		types := make([]int, n)
		for i := range types {
			types[i] = r.IntN(3)
		}
		ref := randomCloud(r, n, 8)
		g := Rigid{
			Theta: r.Float64()*2*math.Pi - math.Pi,
			T:     vec.Vec2{X: r.Float64()*30 - 15, Y: r.Float64()*30 - 15},
		}
		// Apply the rigid motion, then a same-type permutation.
		moving := make([]vec.Vec2, n)
		perm := sameTypePermutation(r, types)
		movTypes := make([]int, n)
		for i := range ref {
			moving[perm[i]] = g.Apply(ref[i])
			movTypes[perm[i]] = types[i]
		}
		res, err := ICP(moving, ref, movTypes, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if res.RMS > 1e-6 {
			t.Fatalf("trial %d: residual %v after aligning a planted transform", trial, res.RMS)
		}
		// The reordered output must match the reference point-for-point.
		re := res.Reordered()
		for j := range ref {
			want := ref[j].Sub(vec.Centroid(ref))
			if re[j].Dist(want) > 1e-6 {
				t.Fatalf("trial %d: reordered[%d] = %v, want %v", trial, j, re[j], want)
			}
		}
	}
}

// sameTypePermutation returns a permutation that only moves indices within
// the same type class (an element of S*_n).
func sameTypePermutation(r *rand.Rand, types []int) []int {
	byType := map[int][]int{}
	for i, ty := range types {
		byType[ty] = append(byType[ty], i)
	}
	perm := make([]int, len(types))
	for _, idx := range byType {
		shuffled := append([]int(nil), idx...)
		r.Shuffle(len(shuffled), func(a, b int) { shuffled[a], shuffled[b] = shuffled[b], shuffled[a] })
		for k, i := range idx {
			perm[i] = shuffled[k]
		}
	}
	return perm
}

func TestICPPermIsTypeRespectingBijection(t *testing.T) {
	r := rand.New(rand.NewPCG(9, 10))
	n := 24
	types := make([]int, n)
	for i := range types {
		types[i] = i % 4
	}
	ref := randomCloud(r, n, 6)
	moving := Rigid{Theta: 0.4, T: vec.Vec2{X: 3}}.ApplyAll(ref)
	res, err := ICP(moving, ref, types, Options{})
	if err != nil {
		t.Fatal(err)
	}
	seen := make([]bool, n)
	for j, i := range res.Perm {
		if seen[i] {
			t.Fatal("Perm is not a bijection")
		}
		seen[i] = true
		if types[i] != types[j] {
			t.Fatalf("Perm crosses types: ref slot %d (type %d) ← moving %d (type %d)",
				j, types[j], i, types[i])
		}
	}
}

func TestICPNoisyAlignment(t *testing.T) {
	// Small perturbations: residual should be of the noise order, far
	// below the cloud extent.
	r := rand.New(rand.NewPCG(11, 12))
	n := 30
	types := make([]int, n) // single type
	ref := randomCloud(r, n, 10)
	g := Rigid{Theta: 2.0, T: vec.Vec2{X: -4, Y: 9}}
	moving := g.ApplyAll(ref)
	for i := range moving {
		moving[i] = moving[i].Add(vec.Vec2{X: r.NormFloat64() * 0.02, Y: r.NormFloat64() * 0.02})
	}
	res, err := ICP(moving, ref, types, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.RMS > 0.1 {
		t.Fatalf("noisy residual = %v", res.RMS)
	}
}

// liftedICP is the oracle of TestICPMatchesLiftedSearch: ICP as Sec. 5.2
// states it, each correspondence found by a linear scan over the reference
// lifted into R³ with type × 10·diameter as the third coordinate, ties to
// the smaller index. Everything else follows (*Aligner).ICP step for step.
func liftedICP(moving, reference []vec.Vec2, types []int) Result {
	opt := Options{}.withDefaults()
	mov := append([]vec.Vec2(nil), moving...)
	ref := append([]vec.Vec2(nil), reference...)
	movC, refC := vec.Center(mov), vec.Center(ref)
	diameter := 2 * math.Max(vec.Radius(mov), vec.Radius(ref))
	if diameter == 0 {
		diameter = 1
	}
	type point3 struct{ x, y, z float64 }
	lift := func(p vec.Vec2, t int) point3 { return point3{p.X, p.Y, float64(t) * 10 * diameter} }
	lifted := make([]point3, len(ref))
	for j, p := range ref {
		lifted[j] = lift(p, types[j])
	}
	nearest := func(q point3) (int, float64) {
		best, bestD2 := -1, math.Inf(1)
		for j, p := range lifted {
			dx, dy, dz := p.x-q.x, p.y-q.y, p.z-q.z
			if d2 := dx*dx + dy*dy + dz*dz; d2 < bestD2 {
				best, bestD2 = j, d2
			}
		}
		return best, bestD2
	}

	n := len(mov)
	rotated, matched := make([]vec.Vec2, n), make([]vec.Vec2, n)
	bestTheta, bestCost, iters := 0.0, math.Inf(1), 0
	for restart := 0; restart < opt.Restarts; restart++ {
		theta := 2 * math.Pi * float64(restart) / float64(opt.Restarts)
		prevRMS := math.Inf(1)
		for iter := 0; iter < opt.MaxIterations; iter++ {
			iters++
			for i, p := range mov {
				rotated[i] = p.Rotate(theta)
			}
			var sumD2 float64
			for i, p := range rotated {
				j, _ := nearest(lift(p, types[i]))
				matched[i] = ref[j]
				sumD2 += p.Dist2(ref[j])
			}
			rms := math.Sqrt(sumD2 / float64(n))
			theta += Procrustes2D(rotated, matched).Theta
			if prevRMS-rms < opt.Tolerance {
				break
			}
			prevRMS = rms
		}
		var cost float64
		for i, p := range mov {
			_, d2 := nearest(lift(p.Rotate(theta), types[i]))
			cost += d2
		}
		if cost < bestCost {
			bestCost, bestTheta = cost, theta
		}
	}
	aligned := make([]vec.Vec2, n)
	for i, p := range mov {
		aligned[i] = p.Rotate(bestTheta)
	}
	var a Aligner // the final greedy matching is shared, not under test
	a.groupByType(types)
	a.matchByType(aligned, ref)
	var sumD2 float64
	for j, i := range a.perm {
		sumD2 += aligned[i].Dist2(ref[j])
	}
	return Result{
		Transform:  Rigid{Theta: bestTheta, T: refC.Sub(movC.Rotate(bestTheta))},
		Aligned:    aligned,
		Perm:       a.perm,
		RMS:        math.Sqrt(sumD2 / float64(n)),
		Iterations: iters,
	}
}

// sameBits reports whether two results agree in every field, bit for bit.
func sameBits(a, b Result) bool {
	eq := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	if !eq(a.Transform.Theta, b.Transform.Theta) || !eq(a.Transform.T.X, b.Transform.T.X) ||
		!eq(a.Transform.T.Y, b.Transform.T.Y) || !eq(a.RMS, b.RMS) || a.Iterations != b.Iterations ||
		len(a.Aligned) != len(b.Aligned) || len(a.Perm) != len(b.Perm) {
		return false
	}
	for i := range a.Aligned {
		if !eq(a.Aligned[i].X, b.Aligned[i].X) || !eq(a.Aligned[i].Y, b.Aligned[i].Y) || a.Perm[i] != b.Perm[i] {
			return false
		}
	}
	return true
}

// The correspondence search scans the query's own type in the plane; the
// paper lifts types into R³ and searches all points. The two must give the
// same alignment bit for bit — on random clouds, and on lattice clouds full
// of tied distances and coincident points, with one to five types.
func TestICPMatchesLiftedSearch(t *testing.T) {
	r := rand.New(rand.NewPCG(13, 14))
	var al Aligner // recycled across cases, as the pipeline does
	for trial := 0; trial < 300; trial++ {
		n := 1 + trial%60
		types := make([]int, n)
		nTypes := 1 + r.IntN(5)
		for i := range types {
			types[i] = r.IntN(nTypes)
		}
		var ref, moving []vec.Vec2
		if trial%2 == 0 { // random cloud, moved rigidly with a little noise
			ref = randomCloud(r, n, 4+r.Float64()*20)
			g := Rigid{Theta: r.Float64() * 2 * math.Pi, T: vec.Vec2{X: r.Float64() * 10, Y: r.Float64() * 10}}
			moving = g.ApplyAll(ref)
			for i := range moving {
				moving[i] = moving[i].Add(vec.Vec2{X: r.NormFloat64() * 0.05, Y: r.NormFloat64() * 0.05})
			}
		} else { // small integer lattice: ties everywhere, repeats coincide
			side := 1 + r.IntN(4)
			on := func() vec.Vec2 { return vec.Vec2{X: float64(r.IntN(side)), Y: float64(r.IntN(side))} }
			ref, moving = make([]vec.Vec2, n), make([]vec.Vec2, n)
			for i := range ref {
				ref[i], moving[i] = on(), on()
			}
		}
		want := liftedICP(moving, ref, types)
		got, err := al.ICP(moving, ref, types, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !sameBits(got, want) {
			t.Fatalf("trial %d (n=%d, %d types): own-type scan %+v, lifted search %+v", trial, n, nTypes, got, want)
		}
	}
}

func TestICPInputValidation(t *testing.T) {
	if _, err := ICP(make([]vec.Vec2, 2), make([]vec.Vec2, 3), []int{0, 0}, Options{}); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := ICP(make([]vec.Vec2, 2), make([]vec.Vec2, 2), []int{0}, Options{}); err == nil {
		t.Error("types length mismatch accepted")
	}
	if _, err := ICP(nil, nil, nil, Options{}); err == nil {
		t.Error("empty configuration accepted")
	}
	if _, err := ICP(make([]vec.Vec2, 1), make([]vec.Vec2, 1), []int{-1}, Options{}); err == nil {
		t.Error("negative type accepted")
	}
}

func TestICPTransformMapsOriginalOntoReference(t *testing.T) {
	r := rand.New(rand.NewPCG(15, 16))
	n := 15
	types := make([]int, n)
	ref := randomCloud(r, n, 6)
	g := Rigid{Theta: -0.9, T: vec.Vec2{X: 7, Y: -2}}
	moving := g.ApplyAll(ref)
	res, err := ICP(moving, ref, types, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Transform maps original moving coordinates onto the *centred*
	// reference frame plus the reference centroid — i.e. onto the
	// original reference coordinates.
	for i := range moving {
		mapped := res.Transform.Apply(moving[i])
		if mapped.Dist(ref[i]) > 1e-6 {
			t.Fatalf("Transform maps point %d to %v, want %v", i, mapped, ref[i])
		}
	}
}

// --- AlignFrame -----------------------------------------------------------

func TestAlignFrameCollapsesTransformedCopies(t *testing.T) {
	// All samples are rigid motions + same-type permutations of one
	// shape; after alignment every sample must coincide with the centred
	// reference.
	r := rand.New(rand.NewPCG(17, 18))
	n := 18
	types := make([]int, n)
	for i := range types {
		types[i] = i % 3
	}
	base := randomCloud(r, n, 7)
	m := 12
	frames := make([][]vec.Vec2, m)
	for s := range frames {
		g := Rigid{
			Theta: r.Float64() * 2 * math.Pi,
			T:     vec.Vec2{X: r.Float64() * 40, Y: r.Float64() * 40},
		}
		perm := sameTypePermutation(r, types)
		f := make([]vec.Vec2, n)
		for i := range base {
			f[perm[i]] = g.Apply(base[i])
		}
		// Types must follow the permutation; with round-robin i%3 and
		// same-type permutation the type of slot perm[i] equals
		// types[i] only if the permutation respects classes — it does,
		// but slot types must still line up with the shared `types`.
		for i := range base {
			if types[perm[i]] != types[i] {
				t.Fatal("test setup: permutation crossed types")
			}
		}
		frames[s] = f
	}
	aligned, err := AlignFrame(frames, types, FrameOptions{})
	if err != nil {
		t.Fatal(err)
	}
	centred := append([]vec.Vec2(nil), frames[0]...)
	vec.Center(centred)
	for s := range aligned {
		for j := range centred {
			if aligned[s][j].Dist(centred[j]) > 1e-5 {
				t.Fatalf("sample %d slot %d: %v, want %v", s, j, aligned[s][j], centred[j])
			}
		}
	}
}

func TestAlignFrameCentroids(t *testing.T) {
	r := rand.New(rand.NewPCG(19, 20))
	frames := [][]vec.Vec2{randomCloud(r, 10, 5), randomCloud(r, 10, 5)}
	types := make([]int, 10)
	aligned, err := AlignFrame(frames, types, FrameOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for s := range aligned {
		if c := vec.Centroid(aligned[s]); c.Norm() > 1e-9 {
			t.Fatalf("sample %d centroid = %v, want origin", s, c)
		}
	}
}

func TestAlignFrameMedoidReference(t *testing.T) {
	r := rand.New(rand.NewPCG(21, 22))
	frames := make([][]vec.Vec2, 5)
	for s := range frames {
		frames[s] = randomCloud(r, 8, 5)
	}
	types := make([]int, 8)
	a, err := AlignFrame(frames, types, FrameOptions{Reference: RefMedoid})
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != 5 {
		t.Fatal("wrong sample count")
	}
}

func TestAlignFrameValidation(t *testing.T) {
	if _, err := AlignFrame(nil, nil, FrameOptions{}); err == nil {
		t.Error("empty frame set accepted")
	}
	frames := [][]vec.Vec2{make([]vec.Vec2, 3), make([]vec.Vec2, 4)}
	if _, err := AlignFrame(frames, []int{0, 0, 0}, FrameOptions{}); err == nil {
		t.Error("ragged frames accepted")
	}
}

func TestMedoidIndexPicksCentralSample(t *testing.T) {
	// Two clusters of similar frames plus one clearly central frame.
	base := []vec.Vec2{v2(0, 0), v2(1, 0), v2(0, 1)}
	off1 := []vec.Vec2{v2(5, 0), v2(6, 0), v2(5, 1)} // same shape, far centroid (centred away)
	off2 := []vec.Vec2{v2(0, 0), v2(3, 0), v2(0, 3)} // stretched shape
	off3 := []vec.Vec2{v2(0, 0), v2(2, 0), v2(0, 2)} // mildly stretched: central
	frames := [][]vec.Vec2{base, off1, off2, off3}
	idx := medoidIndex(frames)
	if idx < 0 || idx >= len(frames) {
		t.Fatalf("medoid index out of range: %d", idx)
	}
	// base and off1 are identical after centring; the medoid must be one
	// of the two shapes with minimal summed distance. Just assert it is
	// not the most extreme shape (off2).
	if idx == 2 {
		t.Fatal("medoid picked the most extreme sample")
	}
}

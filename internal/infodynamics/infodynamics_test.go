package infodynamics

import (
	"context"
	"math"
	"math/rand/v2"
	"sort"
	"testing"

	"repro/internal/forces"
	"repro/internal/knn"
	"repro/internal/mathx"
	"repro/internal/sim"
	"repro/internal/vec"
)

// coupledAR builds two scalar-pair time series where Y drives X with lag 1:
// X_{t+1} = a·X_t + c·Y_t + noise, Y_{t+1} = a·Y_t + noise.
func coupledAR(samples, steps int, a, c float64, seed uint64) (xs, ys []Trajectory) {
	r := rand.New(rand.NewPCG(seed, seed^77))
	for s := 0; s < samples; s++ {
		x := make(Trajectory, steps)
		y := make(Trajectory, steps)
		x[0] = vec.Vec2{X: r.NormFloat64(), Y: r.NormFloat64()}
		y[0] = vec.Vec2{X: r.NormFloat64(), Y: r.NormFloat64()}
		for t := 1; t < steps; t++ {
			y[t] = vec.Vec2{
				X: a*y[t-1].X + 0.5*r.NormFloat64(),
				Y: a*y[t-1].Y + 0.5*r.NormFloat64(),
			}
			x[t] = vec.Vec2{
				X: a*x[t-1].X + c*y[t-1].X + 0.5*r.NormFloat64(),
				Y: a*x[t-1].Y + c*y[t-1].Y + 0.5*r.NormFloat64(),
			}
		}
		xs = append(xs, x)
		ys = append(ys, y)
	}
	return xs, ys
}

func TestTransferEntropyDetectsDirectionOfCoupling(t *testing.T) {
	xs, ys := coupledAR(8, 60, 0.5, 0.9, 1)
	teYtoX, err := TransferEntropy(xs, ys, 4)
	if err != nil {
		t.Fatal(err)
	}
	teXtoY, err := TransferEntropy(ys, xs, 4)
	if err != nil {
		t.Fatal(err)
	}
	if teYtoX <= teXtoY {
		t.Fatalf("TE(Y→X)=%v should exceed TE(X→Y)=%v for Y-driven coupling", teYtoX, teXtoY)
	}
	if teYtoX < 0.1 {
		t.Fatalf("TE(Y→X)=%v too small for strong coupling", teYtoX)
	}
}

func TestTransferEntropyIndependentNearZero(t *testing.T) {
	xs, _ := coupledAR(8, 60, 0.5, 0, 2)
	_, ys := coupledAR(8, 60, 0.5, 0, 3)
	te, err := TransferEntropy(xs, ys, 4)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(te) > 0.12 {
		t.Fatalf("TE between independent processes = %v, want ≈ 0", te)
	}
}

func TestActiveStorageOrdersByAutocorrelation(t *testing.T) {
	strong, _ := coupledAR(8, 60, 0.9, 0, 4)
	weak, _ := coupledAR(8, 60, 0.0, 0, 5)
	aStrong, err := ActiveStorage(strong, 4)
	if err != nil {
		t.Fatal(err)
	}
	aWeak, err := ActiveStorage(weak, 4)
	if err != nil {
		t.Fatal(err)
	}
	if aStrong <= aWeak {
		t.Fatalf("AIS(a=0.9)=%v should exceed AIS(a=0)=%v", aStrong, aWeak)
	}
	if aStrong < 0.5 {
		t.Fatalf("AIS of strongly autocorrelated process = %v, want clearly positive", aStrong)
	}
}

func TestConditionalMutualInfoValidation(t *testing.T) {
	good := [][]float64{{1}, {2}, {3}, {4}, {5}, {6}}
	if _, err := ConditionalMutualInfo(good, good[:5], good, 4); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := ConditionalMutualInfo(good, good, good, 0); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := ConditionalMutualInfo(good[:3], good[:3], good[:3], 4); err == nil {
		t.Error("too few samples accepted")
	}
}

func TestConditionalMutualInfoScreensOffMediatedDependence(t *testing.T) {
	// X and Y both copy Z (plus small noise): I(X;Y) is large, but
	// I(X;Y|Z) must be near zero — the conditioning screens off the
	// common cause.
	r := rand.New(rand.NewPCG(6, 7))
	m := 300
	xs := make([][]float64, m)
	ys := make([][]float64, m)
	zs := make([][]float64, m)
	for i := 0; i < m; i++ {
		z := r.NormFloat64()
		zs[i] = []float64{z}
		xs[i] = []float64{z + 0.1*r.NormFloat64()}
		ys[i] = []float64{z + 0.1*r.NormFloat64()}
	}
	cmi, err := ConditionalMutualInfo(xs, ys, zs, 4)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(cmi) > 0.15 {
		t.Fatalf("CMI given the common cause = %v, want ≈ 0", cmi)
	}
	// Sanity: unconditional dependence is strong.
	consts := make([][]float64, m)
	for i := range consts {
		consts[i] = []float64{0}
	}
	mi, err := ConditionalMutualInfo(xs, ys, consts, 4)
	if err != nil {
		t.Fatal(err)
	}
	if mi < 1 {
		t.Fatalf("unconditional MI = %v, want large", mi)
	}
}

func TestTransferEntropyTrajectoryValidation(t *testing.T) {
	xs, ys := coupledAR(2, 10, 0.5, 0.5, 8)
	if _, err := TransferEntropy(xs[:1], ys, 4); err == nil {
		t.Error("sample count mismatch accepted")
	}
	ys[0] = ys[0][:5]
	if _, err := TransferEntropy(xs, ys, 4); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := TransferEntropy(nil, nil, 4); err == nil {
		t.Error("empty input accepted")
	}
}

func TestParticleTrajectoriesAndPairTransfer(t *testing.T) {
	// A coupled 3-particle spring system must carry measurable
	// information between interacting particles. (With only 2 centred
	// particles the partner is a deterministic mirror image and TE is
	// correctly zero, so 3 is the smallest non-degenerate case.)
	ens, err := sim.RunEnsembleCtx(context.Background(), sim.EnsembleConfig{
		Sim: sim.Config{
			N:      3,
			Force:  forces.MustF1(forces.ConstantMatrix(1, 2), forces.ConstantMatrix(1, 2)),
			Cutoff: 10,
		},
		M:           16,
		Steps:       40,
		RecordEvery: 2,
		Seed:        9,
	})
	if err != nil {
		t.Fatal(err)
	}
	trajs := ParticleTrajectories(ens, 0, true)
	if len(trajs) != 16 || len(trajs[0]) != len(ens.Times()) {
		t.Fatal("trajectory extraction shape wrong")
	}

	pt, err := MeasurePairTransfer(ens, 0, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	if pt.TE < 0.05 && pt.TEReverse < 0.05 {
		t.Fatalf("no information transfer measured in a coupled triple: %+v", pt)
	}
}

func TestPairTransferZeroForNonInteractingParticles(t *testing.T) {
	// Particles far outside each other's cut-off radius exchange no
	// information; TE must be ≈ 0 in both directions. (Uncentred
	// coordinates — centring would couple them spuriously.)
	ens, err := sim.RunEnsembleCtx(context.Background(), sim.EnsembleConfig{
		Sim: sim.Config{
			N:          3,
			Force:      forces.MustF1(forces.ConstantMatrix(1, 2), forces.ConstantMatrix(1, 2)),
			Cutoff:     1e-9,
			InitRadius: 100,
		},
		M:           16,
		Steps:       40,
		RecordEvery: 2,
		Seed:        10,
	})
	if err != nil {
		t.Fatal(err)
	}
	ta := ParticleTrajectories(ens, 0, false)
	tb := ParticleTrajectories(ens, 1, false)
	te, err := TransferEntropy(ta, tb, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Pooling across runs with widely scattered base positions leaves a
	// small positive bias; the bound is loose but far below any coupled
	// signal.
	if math.Abs(te) > 0.15 {
		t.Fatalf("TE between non-interacting particles = %v, want ≈ 0", te)
	}
}

// bruteConditionalMutualInfo is the pre-engine Frenzel–Pompe
// implementation (full joint-distance sort per sample, O(m²) sweeps),
// retained verbatim as the reference the shared knn-tree path must
// reproduce bit for bit.
func bruteConditionalMutualInfo(xs, ys, zs [][]float64, k int) float64 {
	m := len(xs)
	type point struct{ x, y, z []float64 }
	pts := make([]point, m)
	for i := range pts {
		pts[i] = point{xs[i], ys[i], zs[i]}
	}
	maxDist := func(a, b []float64) float64 {
		var worst float64
		for i := range a {
			if d := math.Abs(a[i] - b[i]); d > worst {
				worst = d
			}
		}
		return worst
	}
	jointDist := func(a, b point) float64 {
		d := maxDist(a.x, b.x)
		if dy := maxDist(a.y, b.y); dy > d {
			d = dy
		}
		if dz := maxDist(a.z, b.z); dz > d {
			d = dz
		}
		return d
	}
	var acc mathx.KahanSum
	dists := make([]float64, 0, m-1)
	for i := 0; i < m; i++ {
		dists = dists[:0]
		for j := 0; j < m; j++ {
			if j == i {
				continue
			}
			dists = append(dists, jointDist(pts[i], pts[j]))
		}
		sort.Float64s(dists)
		eps := dists[k-1]
		var nXZ, nYZ, nZ int
		for j := 0; j < m; j++ {
			if j == i {
				continue
			}
			dz := maxDist(pts[i].z, pts[j].z)
			if dz >= eps {
				continue
			}
			nZ++
			if maxDist(pts[i].x, pts[j].x) < eps {
				nXZ++
			}
			if maxDist(pts[i].y, pts[j].y) < eps {
				nYZ++
			}
		}
		acc.Add(mathx.Digamma(float64(nZ+1)) -
			mathx.Digamma(float64(nXZ+1)) -
			mathx.Digamma(float64(nYZ+1)))
	}
	return mathx.Log2(mathx.Digamma(float64(k)) + acc.Sum()/float64(m))
}

// drawCMISamples draws m samples of dim coordinates with deliberate
// ties (a third of the coordinates on {0, 1, 2}) and duplicated samples,
// or all-zero samples when constant is set.
func drawCMISamples(r *rand.Rand, m, dim int, constant bool) [][]float64 {
	out := make([][]float64, m)
	for i := range out {
		row := make([]float64, dim)
		for c := range row {
			switch {
			case constant:
				row[c] = 0
			case r.IntN(3) == 0:
				row[c] = float64(r.IntN(3)) // exact ties
			default:
				row[c] = r.NormFloat64()
			}
		}
		out[i] = row
	}
	// Duplicate a few rows to force zero joint distances.
	for d := 0; d < m/8; d++ {
		out[r.IntN(m)] = out[r.IntN(m)]
	}
	return out
}

// Property: ConditionalMutualInfo reproduces the retained brute-force
// sweep bit for bit, on data with deliberate ties and duplicated samples
// (including the degenerate constant-z conditioning of ActiveStorage).
// Which indexes scan here depends on their dimensions; the next test
// holds all four on the tree.
func TestConditionalMutualInfoMatchesBruteExactly(t *testing.T) {
	r := rand.New(rand.NewPCG(21, 0))
	draw := func(m, dim int, constant bool) [][]float64 { return drawCMISamples(r, m, dim, constant) }
	for trial := 0; trial < 60; trial++ {
		m := 10 + r.IntN(60)
		k := 1 + r.IntN(4)
		if m < k+2 {
			continue
		}
		xs := draw(m, 1+r.IntN(3), false)
		ys := draw(m, 1+r.IntN(3), false)
		zs := draw(m, 1+r.IntN(2), trial%5 == 0)
		got, err := ConditionalMutualInfo(xs, ys, zs, k)
		if err != nil {
			t.Fatal(err)
		}
		want := bruteConditionalMutualInfo(xs, ys, zs, k)
		if got != want && !(math.IsNaN(got) && math.IsNaN(want)) {
			t.Fatalf("trial %d (m=%d k=%d): tree CMI %v, brute %v", trial, m, k, got, want)
		}
	}
}

// With 1-D x, y and z at m = 1000 the joint kNN index and the z, xz and
// yz count indexes are all trees; the estimate still reproduces the
// brute-force sweep bit for bit.
func TestConditionalMutualInfoMatchesBruteOnTrees(t *testing.T) {
	r := rand.New(rand.NewPCG(22, 0))
	const m = 1000
	xs, ys, zs := drawCMISamples(r, m, 1, false), drawCMISamples(r, m, 1, false), drawCMISamples(r, m, 1, false)
	for _, k := range []int{1, 4} {
		w, err := buildCMISpace(xs, ys, zs, k)
		if err != nil {
			t.Fatal(err)
		}
		for i, tr := range []*knn.Tree{&w.jointTree, &w.zTree, &w.xzTree, &w.yzTree} {
			if !tr.TreeBacked() {
				t.Fatalf("index %d (joint, z, xz, yz) of %d samples scans; the test needs tree nodes", i, m)
			}
		}
		got, err := ConditionalMutualInfo(xs, ys, zs, k)
		if err != nil {
			t.Fatal(err)
		}
		if want := bruteConditionalMutualInfo(xs, ys, zs, k); got != want {
			t.Fatalf("k=%d: tree CMI %v, brute %v", k, got, want)
		}
	}
}

// The new dimension validation must reject ragged inputs with an error
// instead of the old deep-slice panic.
func TestConditionalMutualInfoRaggedInput(t *testing.T) {
	xs := [][]float64{{1, 2}, {3}}
	ys := [][]float64{{1}, {2}}
	zs := [][]float64{{0}, {0}}
	if _, err := ConditionalMutualInfo(xs, ys, zs, 1); err == nil {
		t.Fatal("ragged x vectors accepted")
	}
	empty := [][]float64{{}, {}, {}, {}}
	one := [][]float64{{0}, {0}, {0}, {0}}
	if _, err := ConditionalMutualInfo(empty, one, one, 1); err == nil {
		t.Fatal("empty x vectors accepted")
	}
}

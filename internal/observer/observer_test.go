package observer

import (
	"context"
	"math"
	"testing"

	"repro/internal/forces"
	"repro/internal/infotheory"
	"repro/internal/sim"
	"repro/internal/vec"
)

func smallEnsemble(t *testing.T, n, l, m, steps, every int) *sim.Ensemble {
	t.Helper()
	ens, err := sim.RunEnsembleCtx(context.Background(), sim.EnsembleConfig{
		Sim: sim.Config{
			N:      n,
			Types:  sim.TypesRoundRobin(n, l),
			Force:  forces.MustF1(forces.ConstantMatrix(l, 1), forces.ConstantMatrix(l, 2)),
			Cutoff: 6,
		},
		M:           m,
		Steps:       steps,
		RecordEvery: every,
		Seed:        5,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ens
}

func TestFromEnsembleShapes(t *testing.T) {
	ens := smallEnsemble(t, 12, 3, 8, 20, 10)
	obs, err := FromEnsembleCtx(context.Background(), ens, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(obs.Times) != 3 { // 0, 10, 20
		t.Fatalf("times = %v", obs.Times)
	}
	if len(obs.Datasets) != 3 {
		t.Fatalf("%d datasets", len(obs.Datasets))
	}
	for _, d := range obs.Datasets {
		if d.NumSamples() != 8 || d.NumVars() != 12 || d.Dim(0) != 2 {
			t.Fatal("dataset shape wrong")
		}
	}
	if len(obs.Labels) != 12 {
		t.Fatalf("labels = %v", obs.Labels)
	}
	for v, lab := range obs.Labels {
		if lab != v%3 {
			t.Fatal("labels should be particle types")
		}
	}
}

func TestFromEnsembleGroups(t *testing.T) {
	ens := smallEnsemble(t, 9, 3, 4, 10, 10)
	obs, err := FromEnsembleCtx(context.Background(), ens, Config{})
	if err != nil {
		t.Fatal(err)
	}
	groups := obs.Groups()
	if len(groups) != 3 {
		t.Fatalf("groups = %v", groups)
	}
	for ty, g := range groups {
		if len(g) != 3 {
			t.Fatalf("group %d = %v", ty, g)
		}
	}
}

func TestFromEnsembleAlignedDatasetsAreCentred(t *testing.T) {
	ens := smallEnsemble(t, 10, 2, 6, 10, 10)
	obs, err := FromEnsembleCtx(context.Background(), ens, Config{})
	if err != nil {
		t.Fatal(err)
	}
	for _, ds := range obs.Datasets {
		for s := 0; s < ds.NumSamples(); s++ {
			var cx, cy float64
			for v := 0; v < ds.NumVars(); v++ {
				x := ds.Var(s, v)
				cx += x[0]
				cy += x[1]
			}
			cx /= float64(ds.NumVars())
			cy /= float64(ds.NumVars())
			if math.Abs(cx) > 1e-6 || math.Abs(cy) > 1e-6 {
				t.Fatalf("sample %d centroid = (%v,%v)", s, cx, cy)
			}
		}
	}
}

func TestFromEnsembleSkipAlign(t *testing.T) {
	ens := smallEnsemble(t, 8, 2, 5, 10, 10)
	obs, err := FromEnsembleCtx(context.Background(), ens, Config{SkipAlign: true})
	if err != nil {
		t.Fatal(err)
	}
	// SkipAlign still centres: variable 0 of sample 0 should be the raw
	// frame position minus its centroid.
	raw := ens.Trajs[0].Frames[0]
	c := vec.Centroid(raw)
	got := obs.Datasets[0].Var(0, 0)
	want := raw[0].Sub(c)
	if math.Abs(got[0]-want.X) > 1e-12 || math.Abs(got[1]-want.Y) > 1e-12 {
		t.Fatalf("SkipAlign dataset = %v, want %v", got, want)
	}
}

func TestFromEnsembleKMeansReduction(t *testing.T) {
	ens := smallEnsemble(t, 20, 2, 6, 10, 10)
	obs, err := FromEnsembleCtx(context.Background(), ens, Config{KMeansK: 3, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	// 2 types × 3 clusters = 6 mean variables (types have 10 members
	// each, so no group shrinkage).
	if len(obs.Labels) != 6 {
		t.Fatalf("reduced to %d observers, want 6", len(obs.Labels))
	}
	for _, ds := range obs.Datasets {
		if ds.NumVars() != 6 {
			t.Fatal("reduced dataset has wrong variable count")
		}
	}
	// Labels: 3 variables per type.
	count := map[int]int{}
	for _, lab := range obs.Labels {
		count[lab]++
	}
	if count[0] != 3 || count[1] != 3 {
		t.Fatalf("label distribution = %v", count)
	}
}

func TestFromEnsembleKMeansDeterministic(t *testing.T) {
	ens := smallEnsemble(t, 16, 2, 5, 10, 10)
	a, err := FromEnsembleCtx(context.Background(), ens, Config{KMeansK: 2, Seed: 33})
	if err != nil {
		t.Fatal(err)
	}
	b, err := FromEnsembleCtx(context.Background(), ens, Config{KMeansK: 2, Seed: 33})
	if err != nil {
		t.Fatal(err)
	}
	for ti := range a.Datasets {
		for s := 0; s < a.Datasets[ti].NumSamples(); s++ {
			for v := 0; v < a.Datasets[ti].NumVars(); v++ {
				av := a.Datasets[ti].Var(s, v)
				bv := b.Datasets[ti].Var(s, v)
				if av[0] != bv[0] || av[1] != bv[1] {
					t.Fatal("k-means reduction not deterministic")
				}
			}
		}
	}
}

func TestMeanDatasetValues(t *testing.T) {
	frames := [][]vec.Vec2{
		{v2(0, 0), v2(2, 0), v2(10, 10)},
		{v2(1, 1), v2(3, 1), v2(20, 20)},
	}
	groups := [][]int{{0, 1}, {2}}
	d := meanDataset(frames, groups)
	if v := d.Var(0, 0); v[0] != 1 || v[1] != 0 {
		t.Fatalf("mean of group 0 sample 0 = %v", v)
	}
	if v := d.Var(1, 0); v[0] != 2 || v[1] != 1 {
		t.Fatalf("mean of group 0 sample 1 = %v", v)
	}
	if v := d.Var(0, 1); v[0] != 10 || v[1] != 10 {
		t.Fatalf("singleton group mean = %v", v)
	}
}

func TestKMeansReductionLowersDimensionButKeepsSignal(t *testing.T) {
	// The reduced estimate must detect organisation in an organising
	// system: final MI above initial MI under reduction, as in the full
	// representation (Sec. 5.3.1: the reduction underestimates but
	// preserves the trend).
	ens, err := sim.RunEnsembleCtx(context.Background(), sim.EnsembleConfig{
		Sim: sim.Config{
			N:     24,
			Types: sim.TypesRoundRobin(24, 2),
			Force: forces.MustF1(forces.ConstantMatrix(2, 1),
				forces.MustMatrix([][]float64{{1.5, 4.0}, {4.0, 2.0}})),
			Cutoff: 6,
		},
		M:           64,
		Steps:       120,
		RecordEvery: 120,
		Seed:        17,
	})
	if err != nil {
		t.Fatal(err)
	}
	obs, err := FromEnsembleCtx(context.Background(), ens, Config{KMeansK: 3, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	first := infotheory.NewEngine(0).MultiInfoKSGVariant(obs.Datasets[0], 4, infotheory.KSG2)
	last := infotheory.NewEngine(0).MultiInfoKSGVariant(obs.Datasets[len(obs.Datasets)-1], 4, infotheory.KSG2)
	if last <= first {
		t.Fatalf("reduced MI did not increase: %v -> %v", first, last)
	}
}

func TestNumTypes(t *testing.T) {
	if numTypes([]int{0, 2, 1, 2}) != 3 {
		t.Fatal("numTypes wrong")
	}
}

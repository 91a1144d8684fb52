package observer

import (
	"context"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/align"
	"repro/internal/sim"
)

// datasetsEqual reports whether two observer results are byte-identical.
func observersEqual(t *testing.T, a, b *Observers) {
	t.Helper()
	if !reflect.DeepEqual(a.Times, b.Times) {
		t.Fatalf("times differ: %v vs %v", a.Times, b.Times)
	}
	if !reflect.DeepEqual(a.Labels, b.Labels) {
		t.Fatalf("labels differ: %v vs %v", a.Labels, b.Labels)
	}
	if len(a.Datasets) != len(b.Datasets) {
		t.Fatalf("%d vs %d datasets", len(a.Datasets), len(b.Datasets))
	}
	for ti := range a.Datasets {
		da, db := a.Datasets[ti], b.Datasets[ti]
		if da.NumSamples() != db.NumSamples() || da.NumVars() != db.NumVars() {
			t.Fatalf("dataset %d shape differs", ti)
		}
		for s := 0; s < da.NumSamples(); s++ {
			for v := 0; v < da.NumVars(); v++ {
				xa, xb := da.Var(s, v), db.Var(s, v)
				for i := range xa {
					if xa[i] != xb[i] {
						t.Fatalf("dataset %d sample %d var %d: %x vs %x", ti, s, v, xa[i], xb[i])
					}
				}
			}
		}
	}
}

// TestStreamingMatchesBatch asserts the headline equivalence: the streaming
// accumulator path of FromEnsembleCtx is byte-identical to the fully-batched
// path (materialise, AlignFrame per step, package) that the seed
// implementation used, for per-particle, k-means-reduced and
// alignment-skipping configurations.
func TestStreamingMatchesBatch(t *testing.T) {
	ens := smallEnsemble(t, 12, 3, 10, 20, 10)
	cfgs := map[string]Config{
		"per-particle": {},
		"kmeans":       {KMeansK: 2, Seed: 7},
		"skipalign":    {SkipAlign: true},
	}
	for name, cfg := range cfgs {
		t.Run(name, func(t *testing.T) {
			streamed, err := FromEnsembleCtx(context.Background(), ens, cfg)
			if err != nil {
				t.Fatal(err)
			}
			batch, err := fromEnsembleBatch(context.Background(), ens, cfg)
			if err != nil {
				t.Fatal(err)
			}
			observersEqual(t, streamed, batch)
		})
	}
}

// TestStreamingMatchesBatchAcrossWorkers varies the alignment worker count;
// the accumulator writes disjoint dataset rows, so results must not depend
// on scheduling.
func TestStreamingMatchesBatchAcrossWorkers(t *testing.T) {
	ens := smallEnsemble(t, 10, 2, 8, 15, 5)
	ref, err := fromEnsembleBatch(context.Background(), ens, Config{})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 3, 8, 32} {
		cfg := Config{Align: align.FrameOptions{Workers: workers}}
		streamed, err := FromEnsembleCtx(context.Background(), ens, cfg)
		if err != nil {
			t.Fatal(err)
		}
		observersEqual(t, streamed, ref)
	}
}

// feedAccumulator drives the full accumulator protocol by hand from an
// ensemble, with the (sample, step) Add order chosen by perm.
func feedAccumulator(t *testing.T, ens *sim.Ensemble, cfg Config, addOrder func(items [][2]int)) *Accumulator {
	t.Helper()
	times := ens.Times()
	acc, err := NewAccumulator(len(ens.Trajs), times, ens.Types, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for ti := range times {
		if err := acc.SeedReference(ti, ens.Trajs[0].Frames[ti]); err != nil {
			t.Fatal(err)
		}
	}
	if err := acc.FinishReference(); err != nil {
		t.Fatal(err)
	}
	var items [][2]int
	for s := 1; s < len(ens.Trajs); s++ {
		for ti := range times {
			items = append(items, [2]int{s, ti})
		}
	}
	if addOrder != nil {
		addOrder(items)
	}
	for _, it := range items {
		if err := acc.Add(it[0], it[1], ens.Trajs[it[0]].Frames[it[1]]); err != nil {
			t.Fatal(err)
		}
	}
	return acc
}

func TestAccumulatorOrderInvariance(t *testing.T) {
	ens := smallEnsemble(t, 9, 3, 6, 10, 5)
	ref := feedAccumulator(t, ens, Config{}, nil).Observers()
	shuffled := feedAccumulator(t, ens, Config{}, func(items [][2]int) {
		rand.New(rand.NewSource(3)).Shuffle(len(items), func(i, j int) {
			items[i], items[j] = items[j], items[i]
		})
	}).Observers()
	observersEqual(t, ref, shuffled)
}

func TestAccumulatorConcurrentAdds(t *testing.T) {
	ens := smallEnsemble(t, 8, 2, 12, 10, 5)
	ref := feedAccumulator(t, ens, Config{}, nil).Observers()

	times := ens.Times()
	acc, err := NewAccumulator(len(ens.Trajs), times, ens.Types, Config{})
	if err != nil {
		t.Fatal(err)
	}
	for ti := range times {
		if err := acc.SeedReference(ti, ens.Trajs[0].Frames[ti]); err != nil {
			t.Fatal(err)
		}
	}
	if err := acc.FinishReference(); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errc := make(chan error, len(ens.Trajs))
	for s := 1; s < len(ens.Trajs); s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for ti := range times {
				if err := acc.Add(s, ti, ens.Trajs[s].Frames[ti]); err != nil {
					errc <- err
					return
				}
			}
		}(s)
	}
	wg.Wait()
	close(errc)
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	observersEqual(t, ref, acc.Observers())
}

func TestAccumulatorStepCompletion(t *testing.T) {
	ens := smallEnsemble(t, 8, 2, 5, 10, 5)
	times := ens.Times()
	completed := make(map[int]int)
	acc, err := NewAccumulator(len(ens.Trajs), times, ens.Types, Config{})
	if err != nil {
		t.Fatal(err)
	}
	acc.OnStepComplete = func(ti int) { completed[ti]++ }
	for ti := range times {
		if err := acc.SeedReference(ti, ens.Trajs[0].Frames[ti]); err != nil {
			t.Fatal(err)
		}
	}
	if err := acc.FinishReference(); err != nil {
		t.Fatal(err)
	}
	if len(completed) != 0 {
		t.Fatalf("steps completed before any Add: %v", completed)
	}
	// Feed step-major so completions arrive one step at a time.
	for ti := range times {
		for s := 1; s < len(ens.Trajs); s++ {
			if err := acc.Add(s, ti, ens.Trajs[s].Frames[ti]); err != nil {
				t.Fatal(err)
			}
		}
		if completed[ti] != 1 {
			t.Fatalf("step %d completion count = %d after its last Add", ti, completed[ti])
		}
	}
	if len(completed) != len(times) {
		t.Fatalf("%d of %d steps completed", len(completed), len(times))
	}
}

func TestAccumulatorSingleSampleCompletesAtFinish(t *testing.T) {
	ens := smallEnsemble(t, 6, 2, 1, 10, 5)
	times := ens.Times()
	var completed []int
	acc, err := NewAccumulator(1, times, ens.Types, Config{})
	if err != nil {
		t.Fatal(err)
	}
	acc.OnStepComplete = func(ti int) { completed = append(completed, ti) }
	for ti := range times {
		if err := acc.SeedReference(ti, ens.Trajs[0].Frames[ti]); err != nil {
			t.Fatal(err)
		}
	}
	if err := acc.FinishReference(); err != nil {
		t.Fatal(err)
	}
	if len(completed) != len(times) {
		t.Fatalf("M=1: %d of %d steps completed at FinishReference", len(completed), len(times))
	}
}

func TestAccumulatorProtocolErrors(t *testing.T) {
	ens := smallEnsemble(t, 6, 2, 4, 10, 5)
	times := ens.Times()

	if _, err := NewAccumulator(0, times, ens.Types, Config{}); err == nil {
		t.Error("m=0 accepted")
	}
	if _, err := NewAccumulator(4, nil, ens.Types, Config{}); err == nil {
		t.Error("empty time grid accepted")
	}
	if _, err := NewAccumulator(4, times, ens.Types, Config{
		Align: align.FrameOptions{Reference: align.RefMedoid},
	}); err == nil {
		t.Error("medoid reference accepted by the streaming accumulator")
	}

	acc, err := NewAccumulator(4, times, ens.Types, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := acc.Add(1, 0, ens.Trajs[1].Frames[0]); err == nil {
		t.Error("Add before FinishReference accepted")
	}
	if err := acc.FinishReference(); err == nil {
		t.Error("FinishReference with unseeded steps accepted")
	}
	for ti := range times {
		if err := acc.SeedReference(ti, ens.Trajs[0].Frames[ti]); err != nil {
			t.Fatal(err)
		}
	}
	if err := acc.SeedReference(0, ens.Trajs[0].Frames[0][:3]); err == nil {
		t.Error("short reference frame accepted")
	}
	if err := acc.FinishReference(); err != nil {
		t.Fatal(err)
	}
	if err := acc.FinishReference(); err == nil {
		t.Error("double FinishReference accepted")
	}
	if err := acc.Add(0, 0, ens.Trajs[0].Frames[0]); err == nil {
		t.Error("Add of the reference sample accepted")
	}
	if err := acc.Add(4, 0, ens.Trajs[1].Frames[0]); err == nil {
		t.Error("out-of-range sample accepted")
	}
	if err := acc.Add(1, len(times), ens.Trajs[1].Frames[0]); err == nil {
		t.Error("out-of-range step accepted")
	}
	if err := acc.Add(1, 0, ens.Trajs[1].Frames[0][:3]); err == nil {
		t.Error("short frame accepted")
	}
}

// TestAccumulatorSteadyStateAllocations is the allocation proof for the
// per-step accumulators: after the pools are warm, adding a frame must
// not allocate on the SkipAlign path or on the ICP path (scratch-reusing
// Aligner; no per-frame tree, lift, permutation or matching storage).
func TestAccumulatorSteadyStateAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; counts are only meaningful without -race")
	}
	ens := smallEnsemble(t, 12, 3, 4, 10, 5)
	times := ens.Times()
	build := func(cfg Config) *Accumulator {
		acc, err := NewAccumulator(len(ens.Trajs), times, ens.Types, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for ti := range times {
			if err := acc.SeedReference(ti, ens.Trajs[0].Frames[ti]); err != nil {
				t.Fatal(err)
			}
		}
		if err := acc.FinishReference(); err != nil {
			t.Fatal(err)
		}
		return acc
	}

	t.Run("skipalign", func(t *testing.T) {
		acc := build(Config{SkipAlign: true})
		warm := func() {
			for s := 1; s < len(ens.Trajs); s++ {
				if err := acc.Add(s, 0, ens.Trajs[s].Frames[0]); err != nil {
					t.Fatal(err)
				}
			}
		}
		warm()
		allocs := testing.AllocsPerRun(20, func() {
			if err := acc.Add(1, 1, ens.Trajs[1].Frames[1]); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 0 {
			t.Errorf("SkipAlign Add allocates %.1f objects/op, want 0", allocs)
		}
	})

	t.Run("aligned", func(t *testing.T) {
		acc := build(Config{})
		for s := 1; s < len(ens.Trajs); s++ {
			if err := acc.Add(s, 0, ens.Trajs[s].Frames[0]); err != nil {
				t.Fatal(err)
			}
		}
		allocs := testing.AllocsPerRun(20, func() {
			if err := acc.Add(1, 1, ens.Trajs[1].Frames[1]); err != nil {
				t.Fatal(err)
			}
		})
		// ICP alignment and the dataset write run on pooled scratch.
		if allocs != 0 {
			t.Errorf("aligned Add allocates %.1f objects/op, want 0", allocs)
		}
	})
}

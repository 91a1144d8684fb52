// Package observer turns aligned simulation ensembles into the observer-
// variable datasets of Sec. 3.1: per recorded time step, a dataset whose
// variables W₁^(t),…,W_n^(t) are the aligned per-particle positions across
// the m samples, plus the coarse-graining machinery — per-type grouping for
// the decomposition of Sec. 6.1.1 and the k-means mean-variable reduction
// of Sec. 5.3.1 for large collectives.
package observer

import (
	"context"
	"fmt"
	"runtime"

	"repro/internal/align"
	"repro/internal/infotheory"
	"repro/internal/kmeans"
	"repro/internal/rngx"
	"repro/internal/sim"
	"repro/internal/vec"
	"repro/internal/workpool"
)

// Observers is the processed representation of one experiment: for each
// recorded time step, an observer dataset, together with the observer
// labels that drive grouping.
type Observers struct {
	// Times are the recorded step indices, shared with the ensemble.
	Times []int
	// Datasets[t] holds the m×n observer samples of recorded step t.
	Datasets []*infotheory.Dataset
	// Labels[v] is the type label of observer variable v (the particle
	// type, or the owning type of a k-means mean variable).
	Labels []int
}

// Groups returns the variable groups by label, for the per-type
// decomposition.
func (o *Observers) Groups() [][]int { return infotheory.GroupsByLabel(o.Labels) }

// Config controls the ensemble→observer reduction.
type Config struct {
	// Align configures the per-frame ICP alignment.
	Align align.FrameOptions
	// KMeansK, when positive, replaces per-particle observers by per-
	// type k-means mean variables (Sec. 5.3.1): particles of each type
	// are partitioned into at most KMeansK groups on the anchor frame
	// and each group's mean position becomes one observer variable. The
	// paper applies this for systems with more than 60 particles.
	KMeansK int
	// Seed drives the k-means seeding (deterministic reduction).
	Seed uint64
	// SkipAlign bypasses the ICP alignment (centring still applied).
	// Exposed for the ablation of the invariant representation: the
	// paper argues alignment densifies the sample space; this switch
	// lets the harness measure exactly that.
	SkipAlign bool
}

// Streamable reports whether this configuration can run through the
// streaming Accumulator: either alignment is skipped, or the reference is
// RefFirst (the default). The medoid reference needs every sample of a
// frame simultaneously and requires the batch path. This is the single
// dispatch predicate shared by FromEnsembleCtx, NewAccumulator and
// experiment.Pipeline.Run.
func (c Config) Streamable() bool {
	return c.SkipAlign || c.Align.Reference == align.RefFirst
}

// FromEnsembleCtx aligns every recorded frame of the ensemble and packages
// the result as observer datasets. The anchor frame for the k-means
// reduction is the aligned final frame of the first sample (organised
// configurations give spatially meaningful clusters).
//
// With the default RefFirst reference (or SkipAlign) the work runs through
// the streaming Accumulator: frames are aligned in parallel across
// (sample, step) work items and written directly into the per-step
// datasets, with no aligned intermediate copy of the ensemble. The medoid
// reference needs all samples of a frame at once and takes the batch path.
// Cancellation stops the per-(sample, step) alignment pool within one work
// item and returns the context's error.
func FromEnsembleCtx(ctx context.Context, ens *sim.Ensemble, cfg Config) (*Observers, error) {
	times := ens.Times()
	if len(times) == 0 {
		return nil, fmt.Errorf("observer: ensemble has no recorded frames")
	}
	if !cfg.Streamable() {
		return fromEnsembleBatch(ctx, ens, cfg)
	}
	m := len(ens.Trajs)
	acc, err := NewAccumulator(m, times, ens.Types, cfg)
	if err != nil {
		return nil, err
	}
	for t := range times {
		if err := acc.SeedReference(t, ens.Trajs[0].Frames[t]); err != nil {
			return nil, err
		}
	}
	if err := acc.FinishReference(); err != nil {
		return nil, err
	}
	if m > 1 {
		nT := len(times)
		workers := cfg.Align.Workers
		if workers <= 0 {
			workers = runtime.GOMAXPROCS(0)
		}
		err := workpool.RunCtx(ctx, (m-1)*nT, workers, nil, func(_, i int) error {
			s, t := 1+i/nT, i%nT
			return acc.Add(s, t, ens.Trajs[s].Frames[t])
		})
		if err != nil {
			return nil, err
		}
	}
	return acc.Observers(), nil
}

// fromEnsembleBatch is the fully-materialised path: align every frame over
// all samples first (required by the medoid reference), then package the
// aligned copies into datasets.
func fromEnsembleBatch(ctx context.Context, ens *sim.Ensemble, cfg Config) (*Observers, error) {
	times := ens.Times()
	// Align all recorded frames.
	aligned := make([][][]vec.Vec2, len(times))
	for t := range times {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		frames := ens.FramesAt(t)
		if cfg.SkipAlign {
			aligned[t] = centerOnly(frames)
			continue
		}
		af, err := align.AlignFrame(frames, ens.Types, cfg.Align)
		if err != nil {
			return nil, fmt.Errorf("observer: frame %d: %w", t, err)
		}
		aligned[t] = af
	}

	obs := &Observers{Times: append([]int(nil), times...)}

	if cfg.KMeansK <= 0 {
		obs.Labels = append([]int(nil), ens.Types...)
		obs.Datasets = make([]*infotheory.Dataset, len(times))
		for t := range times {
			obs.Datasets[t] = infotheory.FromFrames(aligned[t])
		}
		return obs, nil
	}

	// k-means reduction: partition particle indices per type on the
	// anchor frame, then per sample take each group's mean position.
	l := numTypes(ens.Types)
	anchor := aligned[len(times)-1][0]
	groups, err := kmeans.PartitionByType(anchor, ens.Types, l, cfg.KMeansK, rngx.New(cfg.Seed))
	if err != nil {
		return nil, fmt.Errorf("observer: k-means reduction: %w", err)
	}
	var flat [][]int
	for t, perType := range groups {
		for _, g := range perType {
			flat = append(flat, g)
			obs.Labels = append(obs.Labels, t)
		}
	}
	if len(flat) < 2 {
		return nil, fmt.Errorf("observer: k-means reduction produced %d observers; need at least 2", len(flat))
	}
	obs.Datasets = make([]*infotheory.Dataset, len(times))
	for t := range times {
		obs.Datasets[t] = meanDataset(aligned[t], flat)
	}
	return obs, nil
}

func centerOnly(frames [][]vec.Vec2) [][]vec.Vec2 {
	out := make([][]vec.Vec2, len(frames))
	for s, f := range frames {
		c := append([]vec.Vec2(nil), f...)
		vec.Center(c)
		out[s] = c
	}
	return out
}

func numTypes(types []int) int {
	max := -1
	for _, t := range types {
		if t > max {
			max = t
		}
	}
	return max + 1
}

// meanDataset builds the reduced dataset Ŵ of Sec. 5.3.1: variable g of
// sample s is the mean position of the particles in groups[g] in sample s.
func meanDataset(frames [][]vec.Vec2, groups [][]int) *infotheory.Dataset {
	dims := make([]int, len(groups))
	for g := range dims {
		dims[g] = 2
	}
	d := infotheory.NewDataset(len(frames), dims)
	for s, f := range frames {
		for g, members := range groups {
			var sum vec.Vec2
			for _, i := range members {
				sum = sum.Add(f[i])
			}
			mean := sum.Scale(1 / float64(len(members)))
			d.SetVar(s, g, mean.X, mean.Y)
		}
	}
	return d
}

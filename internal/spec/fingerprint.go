package spec

import (
	"fmt"
	"hash/fnv"

	"repro/internal/experiment"
	"repro/internal/forces"
)

// PipelineFingerprint derives a stable FNV-1a identity for everything
// that affects a single run's numbers: the pipeline knobs, the ensemble
// grid and seed, the simulation parameters, and the serialised force
// spec. It is THE checkpoint key — the sweep layer's gob checkpoints are
// keyed by it, and its byte recipe is frozen (checkpoints written by
// earlier releases must keep verifying), so changes here invalidate every
// checkpoint on disk and must bump the checkpoint file version instead.
//
// ok is false when the force is a custom Scaling with no serialisable
// spec — such runs are recomputed rather than resumed, since their
// identity cannot be pinned. Worker counts and budgets (ensemble,
// estimator, sweep) are deliberately excluded: results are
// bit-identical across all of them. The frozen observer text alone
// still carries Align.Workers, which no spec sets.
// TestFingerprintCoversEveryLeaf moves every leaf of the pipeline and
// holds both rules.
func PipelineFingerprint(id string, p experiment.Pipeline) (fp uint64, ok bool) {
	if p.Ensemble.Sim.Force == nil {
		return 0, false
	}
	fspec, err := forces.ToSpec(p.Ensemble.Sim.Force)
	if err != nil {
		return 0, false
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "run|%s|%s|%d|%d|%t|%t|", id, p.Estimator, p.K, p.Bins, p.Decompose, p.TrackEntropies)
	ec := p.Ensemble
	fmt.Fprintf(h, "ens|%d|%d|%d|%d|", ec.M, ec.Steps, ec.RecordEvery, ec.Seed)
	s := ec.Sim
	fmt.Fprintf(h, "sim|%d|%v|%g|%g|%g|%g|%g|%d|", s.N, s.Types, s.Cutoff, s.Dt, s.NoiseVariance, s.InitRadius, s.EquilibriumThreshold, s.EquilibriumWindow)
	// The observer enters as the %+v text of observer.Config when the
	// recipe was frozen, field by field; align.Options then also carried
	// TypeScaleFactor and BruteForceNN, which no pipeline ever set.
	o, icp := p.Observer, p.Observer.Align.ICP
	fmt.Fprintf(h, "obs|{Align:{ICP:{MaxIterations:%d Tolerance:%v TypeScaleFactor:0 Restarts:%d BruteForceNN:false} Reference:%d Workers:%d} KMeansK:%d Seed:%d SkipAlign:%t}|",
		icp.MaxIterations, icp.Tolerance, icp.Restarts, o.Align.Reference, o.Align.Workers, o.KMeansK, o.Seed, o.SkipAlign)
	fmt.Fprintf(h, "force|%+v", fspec)
	// The approximate tier changes the numbers, so it keys the
	// fingerprint — but only when enabled: exact-tier pipelines (tier
	// absent or "exact") must keep hashing the frozen legacy recipe
	// byte-for-byte, or every checkpoint on disk would be orphaned.
	if p.Tier == experiment.TierApprox {
		fmt.Fprintf(h, "|tier|%s|%d", p.Tier, p.Subsample)
	}
	return h.Sum64(), true
}

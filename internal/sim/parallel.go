package sim

import (
	"math"
	"sync"

	"repro/internal/spatial"
	"repro/internal/vec"
)

// Sharded force accumulation (Config.Workers ≥ 1).
//
// The particle range is split into contiguous shards, one per worker, and
// each worker computes the complete force on its own particles by scanning
// their full neighbourhoods. Workers write disjoint entries of the shared
// force array, so no reduction or locking is needed, and each particle's
// accumulation order depends only on that particle's neighbour list — never
// on the shard layout. Together with the canonical pair orientation of
// oneSided this makes the trajectory bit-identical for every worker count,
// which the determinism regression tests assert.
//
// The price is two force evaluations per unordered pair instead of one
// (Newton's third law is no longer exploited across particles), which the
// parallel speed-up amortises from two workers up.

// forcesSharded accumulates forces over per-particle shards. A nil grid
// selects the cut-off-filtered full sweep.
func (s *System) forcesSharded(grid *spatial.DenseGrid) {
	n := len(s.pos)
	w := s.cfg.Workers
	if w > n {
		w = n
	}
	for len(s.wnbr) < w {
		s.wnbr = append(s.wnbr, nil)
	}
	if w <= 1 {
		s.wnbr[0] = s.shardForces(grid, s.wnbr[0], 0, n)
		return
	}
	var wg sync.WaitGroup
	for k := 0; k < w; k++ {
		lo, hi := k*n/w, (k+1)*n/w
		wg.Add(1)
		go func(k, lo, hi int) {
			defer wg.Done()
			s.wnbr[k] = s.shardForces(grid, s.wnbr[k], lo, hi)
		}(k, lo, hi)
	}
	wg.Wait()
}

// shardForces computes force[i] for every i in [lo, hi), returning the
// (possibly grown) neighbour scratch buffer for reuse next step.
func (s *System) shardForces(grid *spatial.DenseGrid, nbr []int32, lo, hi int) []int32 {
	rc := s.cfg.Cutoff
	rc2 := rc * rc
	inf := math.IsInf(rc, 1)
	for i := lo; i < hi; i++ {
		var acc vec.Vec2
		if grid != nil {
			nbr = grid.AppendNeighbors(nbr[:0], i, rc)
			for _, j := range nbr {
				acc = acc.Add(s.oneSided(i, int(j)))
			}
		} else {
			for j := range s.pos {
				if j == i {
					continue
				}
				if !inf && s.pos[i].Dist2(s.pos[j]) > rc2 {
					continue
				}
				acc = acc.Add(s.oneSided(i, j))
			}
		}
		s.force[i] = acc
	}
	return nbr
}

// oneSided returns the contribution of partner j to particle i's force.
// The pair is always evaluated in lower-index-first orientation, so
// oneSided(i, j) is the exact IEEE-754 negation of oneSided(j, i) — sign
// flips are exact — and Newton's third law holds bit-for-bit even though
// the two sides are computed independently, possibly on different workers.
func (s *System) oneSided(i, j int) vec.Vec2 {
	lo, hi := i, j
	if lo > hi {
		lo, hi = hi, lo
	}
	dz := s.pos[lo].Sub(s.pos[hi]) // Δz = z_lo − z_hi
	d2 := dz.Norm2()
	if d2 == 0 {
		// Coincident particles: direction undefined, same convention as
		// pairForce.
		return vec.Vec2{}
	}
	d := math.Sqrt(d2)
	f := s.cfg.Force.Eval(s.cfg.Types[lo], s.cfg.Types[hi], d)
	contrib := dz.Scale(-f)
	if i == hi {
		return contrib.Neg()
	}
	return contrib
}

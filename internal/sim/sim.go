// Package sim implements the interacting particle model of Sec. 4.1/5.1 of
// the paper: n typed point particles in R² with overdamped dynamics
//
//	ż_i = Σ_{j ∈ N_rc(i)} −F_αβ(‖Δz_ij‖₂)·Δz_ij + w,   w ~ N(0, 0.05)
//
// integrated with the Euler–Maruyama scheme, plus the ensemble machinery
// (m independent runs per experiment) and the equilibrium / limit-cycle
// detectors described in Secs. 4.1 and 6.
package sim

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/forces"
	"repro/internal/rngx"
	"repro/internal/spatial"
	"repro/internal/vec"
)

// Default parameter values. The paper fixes the noise (w ~ N(0, 0.05)) and
// the initial condition (uniform on a disc) but leaves the integrator step
// unspecified; Dt = 0.1 reproduces the paper's "organisation over tens to
// hundreds of steps" time scale for k_αβ ∈ [1, 10] (see DESIGN.md).
const (
	DefaultDt            = 0.1
	DefaultNoiseVariance = 0.05
	DefaultInitRadius    = 5.0
	// DefaultEquilibriumThresholdPerParticle scales the equilibrium
	// criterion with the collective size: the noise keeps each particle
	// jittering in its local potential well, so the net deterministic
	// force per particle never vanishes exactly; ~0.5 per particle is
	// comfortably above that noise floor and far below the organising
	// forces.
	DefaultEquilibriumThresholdPerParticle = 0.5
	DefaultEquilibriumWindow               = 10
)

// Config specifies a single simulation run. The zero value is not runnable;
// use WithDefaults to fill unset numeric fields and Validate to check the
// result.
type Config struct {
	// N is the number of particles.
	N int
	// Types assigns each particle a type in [0, Force.Types()). If nil,
	// types are assigned round-robin over Force.Types().
	Types []int
	// Force is the interaction law (Eq. 7 or Eq. 8).
	Force forces.Scaling
	// Cutoff is the interaction radius rc; math.Inf(1) enables the
	// unbounded-interaction experiments (rc = ∞, Sec. 6.1). Zero is
	// replaced by +Inf by WithDefaults.
	Cutoff float64
	// Dt is the Euler–Maruyama step size.
	Dt float64
	// NoiseVariance is the variance of the additive Gaussian noise per
	// coordinate per unit time (the paper's N(0, 0.05)). Set to a
	// negative value for a noise-free simulation; zero means "default".
	NoiseVariance float64
	// InitRadius is the radius of the disc on which particles are
	// initially distributed uniformly (Sec. 5.1).
	InitRadius float64
	// EquilibriumThreshold: the collective is in equilibrium when the
	// sum over particles of the L2 norm of the net (deterministic) force
	// stays below this for EquilibriumWindow consecutive steps
	// (Sec. 4.1).
	EquilibriumThreshold float64
	// EquilibriumWindow is the number of consecutive sub-threshold steps
	// required.
	EquilibriumWindow int
	// Workers selects the force-accumulation mode. 0 (the default) is the
	// serial unordered-pair sweep, each interaction evaluated once.
	// Workers ≥ 1 switches to per-particle sharding: every particle's
	// force is accumulated independently over its full neighbourhood in
	// canonical orientation, so the result is bit-identical for every
	// worker count — Workers=1 runs the shards inline, Workers=k fans
	// them out over k goroutines. The sharded mode costs two force
	// evaluations per pair but parallelises with no synchronisation on
	// the force array.
	Workers int //sopslint:nohash force-accumulation workers within a mode are bit-identical; mode changes bump the checkpoint version instead
}

// WithDefaults returns a copy of c with unset (zero) numeric fields replaced
// by the package defaults and nil Types replaced by a round-robin
// assignment.
func (c Config) WithDefaults() Config {
	if c.Cutoff == 0 {
		c.Cutoff = math.Inf(1)
	}
	if c.Dt == 0 {
		c.Dt = DefaultDt
	}
	if c.NoiseVariance == 0 {
		c.NoiseVariance = DefaultNoiseVariance
	}
	if c.NoiseVariance < 0 {
		c.NoiseVariance = 0
	}
	if c.InitRadius == 0 {
		c.InitRadius = DefaultInitRadius
	}
	if c.EquilibriumThreshold == 0 {
		c.EquilibriumThreshold = DefaultEquilibriumThresholdPerParticle * float64(c.N)
	}
	if c.EquilibriumWindow == 0 {
		c.EquilibriumWindow = DefaultEquilibriumWindow
	}
	if c.Types == nil && c.Force != nil {
		c.Types = TypesRoundRobin(c.N, c.Force.Types())
	}
	return c
}

// Validate reports the first problem with the configuration, or nil.
func (c Config) Validate() error {
	if c.N <= 0 {
		return errors.New("sim: N must be positive")
	}
	if c.Force == nil {
		return errors.New("sim: Force must be set")
	}
	if len(c.Types) != c.N {
		return fmt.Errorf("sim: len(Types)=%d, want N=%d", len(c.Types), c.N)
	}
	l := c.Force.Types()
	for i, t := range c.Types {
		if t < 0 || t >= l {
			return fmt.Errorf("sim: particle %d has type %d, want [0,%d)", i, t, l)
		}
	}
	if !(c.Dt > 0) {
		return errors.New("sim: Dt must be positive")
	}
	if c.Cutoff <= 0 {
		return errors.New("sim: Cutoff must be positive (use +Inf for unbounded)")
	}
	if c.InitRadius <= 0 {
		return errors.New("sim: InitRadius must be positive")
	}
	if c.NoiseVariance < 0 {
		return errors.New("sim: NoiseVariance must be non-negative after WithDefaults")
	}
	if c.Workers < 0 {
		return errors.New("sim: Workers must be non-negative")
	}
	return nil
}

// MaxStableDt estimates the largest Euler–Maruyama step that keeps the
// overdamped spring dynamics of Eq. (6) numerically stable: the stiffest
// mode of a particle coupled to q neighbours by springs of strength k has
// Jacobian eigenvalue ≈ q·k, and explicit Euler requires dt < 2/(q·k).
// A safety factor of 4 is applied. Use it when raising k_αβ or the density
// beyond the defaults (the default Dt = 0.1 is sized for k ≈ 1 and ~10
// neighbours, the regime of the paper's sweep experiments).
func MaxStableDt(maxK float64, maxNeighbors int) float64 {
	if maxK <= 0 || maxNeighbors <= 0 {
		return DefaultDt
	}
	return 0.5 / (maxK * float64(maxNeighbors))
}

// TypesRoundRobin assigns n particles to l types cyclically: 0,1,…,l−1,0,…
func TypesRoundRobin(n, l int) []int {
	ts := make([]int, n)
	for i := range ts {
		ts[i] = i % l
	}
	return ts
}

// TypesBlocks assigns n particles to l types in contiguous blocks of
// near-equal size (the first n mod l blocks get one extra particle).
func TypesBlocks(n, l int) []int {
	ts := make([]int, n)
	base, extra := n/l, n%l
	i := 0
	for t := 0; t < l; t++ {
		size := base
		if t < extra {
			size++
		}
		for k := 0; k < size; k++ {
			ts[i] = t
			i++
		}
	}
	return ts
}

// NoiseFunc supplies the additive noise displacement for a particle at a
// step; it must already include the √dt·σ Euler–Maruyama scaling. It exists
// so the invariance property tests (Eq. 10) can replay a transformed noise
// stream; normal use never sets it.
type NoiseFunc func(step, particle int) vec.Vec2

// System is a single running simulation.
type System struct {
	cfg      Config
	pos      []vec.Vec2
	force    []vec.Vec2 // scratch: net deterministic force per particle
	rng      rngx.Source
	noise    NoiseFunc
	noiseAmp float64 // √(dt·σ²)
	step     int
	eqStreak int
	lastNet  float64 // Σ_i ‖force_i‖ of the most recent step

	// Neighbour-search scratch state, recycled across steps so the
	// steady-state grid path performs zero heap allocations.
	grid *spatial.DenseGrid // persistent cell list, rebuilt in place
	nbr  []int32            // serial-path neighbour buffer
	wnbr [][]int32          // per-worker neighbour buffers (sharded mode)
}

// New creates a system with particles placed uniformly at random on the
// initial disc, using rng both for the placement and for the dynamical
// noise. The config is completed with WithDefaults and validated.
func New(cfg Config, rng rngx.Source) (*System, error) {
	cfg = cfg.WithDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	pos := make([]vec.Vec2, cfg.N)
	for i := range pos {
		x, y := rng.UniformDisc(cfg.InitRadius)
		pos[i] = vec.Vec2{X: x, Y: y}
	}
	return newFrom(cfg, pos, rng)
}

// NewFromPositions creates a system with explicit initial positions (copied).
func NewFromPositions(cfg Config, pos []vec.Vec2, rng rngx.Source) (*System, error) {
	cfg = cfg.WithDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(pos) != cfg.N {
		return nil, fmt.Errorf("sim: %d positions for N=%d", len(pos), cfg.N)
	}
	return newFrom(cfg, append([]vec.Vec2(nil), pos...), rng)
}

func newFrom(cfg Config, pos []vec.Vec2, rng rngx.Source) (*System, error) {
	s := &System{
		cfg:      cfg,
		pos:      pos,
		force:    make([]vec.Vec2, cfg.N),
		rng:      rng,
		noiseAmp: math.Sqrt(cfg.Dt * cfg.NoiseVariance),
		lastNet:  math.NaN(),
	}
	return s, nil
}

// SetNoiseFunc overrides the Gaussian noise source. Passing nil restores the
// default. The replacement receives the step index and particle index and
// must return the full noise displacement (including any √dt scaling).
func (s *System) SetNoiseFunc(fn NoiseFunc) { s.noise = fn }

// Config returns the completed configuration.
func (s *System) Config() Config { return s.cfg }

// Step advances the system by one Euler–Maruyama step.
//
// Neighbour search strategy: when the cut-off radius is finite and small
// relative to the collective's extent a cell-list grid gives O(n) total
// work; otherwise (rc = ∞ or rc spanning the whole collective) an O(n²)
// pair sweep is cheaper in practice. The choice is re-made every step from
// the current bounding box. Both paths are exact: the grid visits
// neighbours in one fixed order however spread out the collective is,
// while the brute sweep accumulates in a different order and agrees with
// it up to floating-point rounding (the tests verify agreement to 1e-9).
// The grid is persistent and rebuilt in place, so in steady state the grid
// path allocates nothing.
func (s *System) Step() {
	s.computeForces()
	dt := s.cfg.Dt
	for i := range s.pos {
		s.pos[i] = s.pos[i].Add(s.force[i].Scale(dt)).Add(s.noiseAt(i))
	}
	s.step++
	if s.lastNet < s.cfg.EquilibriumThreshold {
		s.eqStreak++
	} else {
		s.eqStreak = 0
	}
}

func (s *System) noiseAt(i int) vec.Vec2 {
	if s.noise != nil {
		return s.noise(s.step, i)
	}
	if s.noiseAmp == 0 {
		return vec.Vec2{}
	}
	// Draw order (x then y, particles in index order) is part of the
	// reproducibility contract.
	return vec.Vec2{
		X: s.rng.NormFloat64() * s.noiseAmp,
		Y: s.rng.NormFloat64() * s.noiseAmp,
	}
}

// gridReady rebuilds the cell-list grid over the current positions and
// reports whether it serves this step's neighbour search; false selects
// the O(n²) sweep.
func (s *System) gridReady() bool {
	rc := s.cfg.Cutoff
	if math.IsInf(rc, 1) || len(s.pos) < 32 {
		return false
	}
	min, max := vec.BoundingBox(s.pos)
	// A grid pays off when the 3×3 cell window covers clearly less than
	// the whole collective.
	if !(math.Max(max.X-min.X, max.Y-min.Y) > 3*rc) {
		return false
	}
	if s.grid == nil {
		s.grid = spatial.NewDenseGrid(rc)
	}
	// A diverged run's cells may not be indexable; it falls back to the
	// sweep.
	return s.grid.RebuildBounded(s.pos, min, max)
}

func (s *System) computeForces() {
	for i := range s.force {
		s.force[i] = vec.Vec2{}
	}
	var grid *spatial.DenseGrid // nil selects the O(n²) sweep
	if s.gridReady() {
		grid = s.grid
	}
	if s.cfg.Workers > 0 {
		s.forcesSharded(grid)
	} else if grid != nil {
		s.forcesScan(grid)
	} else {
		s.forcesBrute()
	}
	var net mathKahan
	for i := range s.force {
		net.add(s.force[i].Norm())
	}
	s.lastNet = net.sum()
}

// pairForce accumulates the contribution of the (i,j) interaction into both
// particles' force buffers. The interaction is evaluated once per unordered
// pair; by Newton-pair symmetry of Eq. (6) with symmetric matrices, the
// contribution to j is the exact negation of the contribution to i.
func (s *System) pairForce(i, j int) {
	dz := s.pos[i].Sub(s.pos[j]) // Δz_ij = z_i − z_j
	d2 := dz.Norm2()
	if d2 == 0 {
		// Coincident particles: direction undefined; Eq. (6)'s
		// −F·Δz is the zero vector here for both F¹ (k·|x−r| → k·r
		// but direction Δz/‖Δz‖ undefined) and F². Skip; noise will
		// separate them next step.
		return
	}
	d := math.Sqrt(d2)
	f := s.cfg.Force.Eval(s.cfg.Types[i], s.cfg.Types[j], d)
	contrib := dz.Scale(-f)
	s.force[i] = s.force[i].Add(contrib)
	s.force[j] = s.force[j].Sub(contrib)
}

func (s *System) forcesBrute() {
	rc := s.cfg.Cutoff
	inf := math.IsInf(rc, 1)
	rc2 := rc * rc
	for i := 0; i < len(s.pos); i++ {
		for j := i + 1; j < len(s.pos); j++ {
			if !inf && s.pos[i].Dist2(s.pos[j]) > rc2 {
				continue
			}
			s.pairForce(i, j)
		}
	}
}

// forcesScan is the serial grid path: each unordered pair is evaluated once,
// discovered from the lower-index particle's neighbour list. The scratch
// buffer s.nbr is recycled across particles and steps.
func (s *System) forcesScan(grid *spatial.DenseGrid) {
	rc := s.cfg.Cutoff
	for i := range s.pos {
		s.nbr = grid.AppendNeighbors(s.nbr[:0], i, rc)
		for _, j := range s.nbr {
			if int(j) > i { // each unordered pair once
				s.pairForce(i, int(j))
			}
		}
	}
}

// Run advances the system by the given number of steps.
func (s *System) Run(steps int) {
	for k := 0; k < steps; k++ {
		s.Step()
	}
}

// RunUntilEquilibrium steps the system until the equilibrium criterion of
// Sec. 4.1 holds (net deterministic force below threshold for
// EquilibriumWindow consecutive steps) or maxSteps have been taken. It
// returns the number of steps taken and whether equilibrium was reached.
func (s *System) RunUntilEquilibrium(maxSteps int) (steps int, equilibrium bool) {
	for k := 0; k < maxSteps; k++ {
		s.Step()
		if s.eqStreak >= s.cfg.EquilibriumWindow {
			return k + 1, true
		}
	}
	return maxSteps, false
}

// Positions returns a copy of the current particle positions.
func (s *System) Positions() []vec.Vec2 {
	return append([]vec.Vec2(nil), s.pos...)
}

// PositionsRef returns the live position slice; callers must not modify it.
// It exists for the hot paths of the ensemble recorder.
func (s *System) PositionsRef() []vec.Vec2 { return s.pos }

// Types returns the particle type assignment (shared, do not modify).
func (s *System) Types() []int { return s.cfg.Types }

// Time returns the number of steps taken so far.
func (s *System) Time() int { return s.step }

// NetForce returns Σ_i ‖F_i‖₂ of the most recent step, the quantity the
// equilibrium criterion thresholds. NaN before the first step.
func (s *System) NetForce() float64 { return s.lastNet }

// InEquilibrium reports whether the equilibrium criterion currently holds.
func (s *System) InEquilibrium() bool { return s.eqStreak >= s.cfg.EquilibriumWindow }

// mathKahan is a minimal local compensated accumulator (avoids importing
// mathx into this hot path's inner loop via interface indirection).
type mathKahan struct{ s, c float64 }

func (k *mathKahan) add(x float64) {
	t := k.s + x
	if math.Abs(k.s) >= math.Abs(x) {
		k.c += (k.s - t) + x
	} else {
		k.c += (x - t) + k.s
	}
	k.s = t
}
func (k *mathKahan) sum() float64 { return k.s + k.c }

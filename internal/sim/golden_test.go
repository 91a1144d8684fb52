package sim

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"repro/internal/forces"
	"repro/internal/rngx"
	"repro/internal/vec"
)

// springScaling is a Scaling that is neither F1 nor F2: a per-type-pair
// linear spring, so Step must reach it through Eval.
type springScaling struct{ l int }

func (s springScaling) Eval(a, b int, x float64) float64 {
	return (1 + 0.25*float64(a+b)) * (1 - (1.5+0.5*float64(a*b))/x)
}
func (s springScaling) Types() int                         { return s.l }
func (s springScaling) PreferredDistance(a, b int) float64 { return 1.5 + 0.5*float64(a*b) }
func (s springScaling) Name() string                       { return "spring" }

// placedSystem runs cfg from positions drawn by at (on rngx.New(seed)),
// with the dynamical noise on rngx.New(seed+1).
func placedSystem(t *testing.T, cfg Config, seed uint64, at func(i int, rng rngx.Source) vec.Vec2) *System {
	t.Helper()
	rng := rngx.New(seed)
	pos := make([]vec.Vec2, cfg.N)
	for i := range pos {
		pos[i] = at(i, rng)
	}
	sys, err := NewFromPositions(cfg, pos, rngx.New(seed+1))
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// onDisc places every particle uniformly on a disc of radius r.
func onDisc(r float64) func(int, rngx.Source) vec.Vec2 {
	return func(_ int, rng rngx.Source) vec.Vec2 {
		x, y := rng.UniformDisc(r)
		return vec.Vec2{X: x, Y: y}
	}
}

// inTwoClusters places the particles on two discs of radius 8, 10⁴ apart
// on both axes, alternating by index: a box the grid wraps.
func inTwoClusters(i int, rng rngx.Source) vec.Vec2 {
	x, y := rng.UniformDisc(8)
	off := float64(i%2) * 1e4
	return vec.Vec2{X: x + off, Y: y + off}
}

// positionDigest is FNV-64a over math.Float64bits of every coordinate,
// X then Y, in particle order.
func positionDigest(pos []vec.Vec2) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, p := range pos {
		for _, c := range [2]float64{p.X, p.Y} {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(c))
			h.Write(b[:])
		}
	}
	return h.Sum64()
}

// TestStepGoldenBits pins every bit of the trajectory on each force path:
// the spread and the wrapped grid, the O(n²) sweep at N = 20 under F¹
// (the Fig. 11 shape) and F² (the Fig. 8 shape), the sweep at rc = ∞,
// and a custom Scaling on both searches. Each case records the digest of
// every position and the bits of NetForce after its steps; any change to
// the pair order, the order of a sum or a force expression moves them.
func TestStepGoldenBits(t *testing.T) {
	f1 := func(l int, kLo, kHi, rLo, rHi float64, seed uint64) forces.Scaling {
		return forces.RandomF1(l, kLo, kHi, rLo, rHi, rngx.New(seed))
	}
	for _, c := range []struct {
		name  string
		cfg   Config
		seed  uint64
		at    func(int, rngx.Source) vec.Vec2
		grid  bool // the grid serves the first and the last step
		steps int
		pos   uint64 // positionDigest after the steps
		net   uint64 // math.Float64bits(NetForce()) after the steps
	}{
		{name: "grid-spread-f1", grid: true, steps: 50, seed: 21, at: onDisc(30),
			cfg: Config{N: 128, Force: f1(3, 1, 2, 2, 5, 20), Cutoff: 5},
			pos: 0xc061269e2ed9021f, net: 0x4049dbd1024fb080},
		{name: "grid-wrapped-f2", grid: true, steps: 50, seed: 23, at: inTwoClusters,
			cfg: Config{N: 80, Force: forces.RandomF2(3, 1, 2, 1, 10, rngx.New(22)), Cutoff: 2},
			pos: 0x28791030d8d76337, net: 0x403afa5d8d1632c3},
		{name: "sweep-f1-n20", steps: 50, seed: 25, at: onDisc(DefaultInitRadius),
			cfg: Config{N: 20, Force: forces.MustF1(forces.ConstantMatrix(5, 1),
				forces.RandomMatrix(5, 2, 8, rngx.New(24))), Cutoff: 15},
			pos: 0xa1bccbaf3a8f88ca, net: 0x4059a057f1c8b3d6},
		{name: "sweep-f2-n20", steps: 50, seed: 27, at: onDisc(DefaultInitRadius),
			cfg: Config{N: 20, Force: forces.RandomF2(3, 1, 10, 1, 10, rngx.New(26)), Cutoff: 7.5},
			pos: 0x2c4e016ad519b815, net: 0x402692bf328ab824},
		{name: "sweep-inf", steps: 50, seed: 29, at: onDisc(4),
			cfg: Config{N: 64, Force: f1(3, 1, 2, 1, 3, 28), Cutoff: math.Inf(1), Dt: MaxStableDt(2, 63)},
			pos: 0x710197808d532165, net: 0x405d963154e6b2d5},
		{name: "custom-sweep", steps: 50, seed: 31, at: onDisc(DefaultInitRadius),
			cfg: Config{N: 20, Force: springScaling{l: 3}, Cutoff: 6},
			pos: 0x261aaed2d2712ff9, net: 0x40720b6518c24bec},
		{name: "custom-grid", grid: true, steps: 50, seed: 33, at: onDisc(30),
			cfg: Config{N: 128, Force: springScaling{l: 3}, Cutoff: 3},
			pos: 0xf2d299b5cc4fb0ef, net: 0x40390bc0064a4d0b},
	} {
		sys := placedSystem(t, c.cfg, c.seed, c.at)
		if got := sys.gridReady(); got != c.grid {
			t.Fatalf("%s: test setup: grid serves the first step = %v, want %v", c.name, got, c.grid)
		}
		sys.Run(c.steps)
		if got := sys.gridReady(); got != c.grid {
			t.Fatalf("%s: test setup: grid serves the last step = %v, want %v", c.name, got, c.grid)
		}
		pos, net := positionDigest(sys.PositionsRef()), math.Float64bits(sys.NetForce())
		if pos != c.pos || net != c.net {
			t.Errorf("%s: after %d steps position digest %#016x, NetForce bits %#016x (%g); want %#016x, %#016x",
				c.name, c.steps, pos, net, sys.NetForce(), c.pos, c.net)
		}
	}
}

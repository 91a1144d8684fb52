package align

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"strconv"
	"testing"

	"repro/internal/forces"
	"repro/internal/rngx"
	"repro/internal/sim"
	"repro/internal/vec"
)

// paperShape is one of the perfbench systems whose frames ICP aligns:
// Fig. 4's F¹ at N = 50, rc = 5 (three types), Fig. 8's F² at N = 20,
// rc = 7.5 with l types, and Fig. 11's F¹ at N = 20, rc = 15 (five types).
type paperShape struct {
	name string
	cfg  sim.Config
}

func paperShapes() []paperShape {
	fig4 := forces.MustF1(forces.ConstantMatrix(3, 1), forces.MustMatrix([][]float64{
		{2.5, 5.0, 4.0},
		{5.0, 2.5, 2.0},
		{4.0, 2.0, 3.5},
	}))
	fig8 := func(l int) sim.Config {
		return sim.Config{N: 20, Force: forces.RandomF2(l, 1, 10, 1, 10, rngx.Split(8, uint64(l))), Cutoff: 7.5}
	}
	fig11 := forces.MustF1(forces.ConstantMatrix(5, 1), forces.RandomMatrix(5, 2, 8, rngx.Split(11, 11)))
	return []paperShape{
		{"fig4", sim.Config{N: 50, Force: fig4, Cutoff: 5}},
		{"fig8-l1", fig8(1)},
		{"fig8-l3", fig8(3)},
		{"fig8-l10", fig8(10)},
		{"fig11", sim.Config{N: 20, Force: fig11, Cutoff: 15}},
	}
}

// goldenSteps are the times at which frames are taken: the initial disc,
// an organising collective and a settled one.
var goldenSteps = []int{0, 50, 250}

// simulatedFrames returns sample seed's positions at each of steps
// (ascending) and the sample's types.
func simulatedFrames(t testing.TB, cfg sim.Config, seed uint64, steps []int) ([][]vec.Vec2, []int) {
	t.Helper()
	sys, err := sim.New(cfg, rngx.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	frames := make([][]vec.Vec2, 0, len(steps))
	for _, s := range steps {
		sys.Run(s - sys.Time())
		frames = append(frames, sys.Positions())
	}
	return frames, sys.Types()
}

// alignCase is one ICP input: a moving frame, its reference and the
// shared types.
type alignCase struct {
	name              string
	moving, reference []vec.Vec2
	types             []int
}

// goldenCases aligns sample 2 of each paper shape onto its sample 1 at
// every golden step, then adds two degenerate Fig. 4 frames: one with a
// NaN particle and one with two coincident particles of one type.
func goldenCases(t testing.TB) []alignCase {
	var cases []alignCase
	for _, sh := range paperShapes() {
		refs, types := simulatedFrames(t, sh.cfg, 1, goldenSteps)
		movs, _ := simulatedFrames(t, sh.cfg, 2, goldenSteps)
		for k, step := range goldenSteps {
			cases = append(cases, alignCase{name: sh.name + "/t=" + strconv.Itoa(step), moving: movs[k], reference: refs[k], types: types})
		}
	}
	settled := cases[len(goldenSteps)-1] // fig4 at the last step
	nan := append([]vec.Vec2(nil), settled.moving...)
	nan[7] = vec.Vec2{X: math.NaN(), Y: nan[7].Y}
	coincident := append([]vec.Vec2(nil), settled.moving...)
	coincident[3] = coincident[0] // round-robin types: both type 0
	return append(cases,
		alignCase{name: "fig4/nan", moving: nan, reference: settled.reference, types: settled.types},
		alignCase{name: "fig4/coincident", moving: coincident, reference: settled.reference, types: settled.types})
}

// digest is FNV-64a over the bits of ICP's result — θ, the translation,
// the RMS, the iteration count and the permutation — followed by the rows
// AlignReorderedInto writes for the same input.
func digest(res Result, rows []vec.Vec2) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(u uint64) {
		binary.LittleEndian.PutUint64(b[:], u)
		h.Write(b[:])
	}
	for _, f := range []float64{res.Transform.Theta, res.Transform.T.X, res.Transform.T.Y, res.RMS} {
		put(math.Float64bits(f))
	}
	put(uint64(res.Iterations))
	for _, i := range res.Perm {
		put(uint64(i))
	}
	for _, p := range rows {
		put(math.Float64bits(p.X))
		put(math.Float64bits(p.Y))
	}
	return h.Sum64()
}

// TestICPGoldenBits pins every bit of ICP's output on simulated frames of
// the Fig. 4, Fig. 8 (l = 1, 3, 10) and Fig. 11 shapes, and on a frame
// with a NaN particle and one with coincident particles. One Aligner
// serves every case, as a pipeline worker's does; any change to the
// correspondence search, the matching or the order of a sum moves a
// digest.
func TestICPGoldenBits(t *testing.T) {
	want := map[string]uint64{
		"fig4/t=0":        0xedf1c65ca2d0fae4,
		"fig4/t=50":       0x57f432ea9b6f52d8,
		"fig4/t=250":      0xfe4ab77fa0aa5abb,
		"fig8-l1/t=0":     0x3a3b4e299b0cbcc6,
		"fig8-l1/t=50":    0x7d05c1fac5596706,
		"fig8-l1/t=250":   0x9a38ed17b2c01903,
		"fig8-l3/t=0":     0x838b2dd8d5fbc803,
		"fig8-l3/t=50":    0xd7c382b84f8625d1,
		"fig8-l3/t=250":   0x42854eec5fe51b2f,
		"fig8-l10/t=0":    0x3fb75d9b87a3fe52,
		"fig8-l10/t=50":   0xac2643c84ac561fd,
		"fig8-l10/t=250":  0xafaa184a1a86b05f,
		"fig11/t=0":       0x47e9ee9b02cf80df,
		"fig11/t=50":      0xa26e9a9eb86c8c31,
		"fig11/t=250":     0xfd28790bf2217f65,
		"fig4/nan":        0xe7039222fe40bf67,
		"fig4/coincident": 0x5b3d45b3d8a8ffe7,
	}
	var al Aligner
	for _, c := range goldenCases(t) {
		res, err := al.ICP(c.moving, c.reference, c.types, Options{})
		if err != nil {
			t.Fatal(err)
		}
		rows := make([]vec.Vec2, len(c.reference))
		if err := al.AlignReorderedInto(rows, c.moving, c.reference, c.types, Options{}); err != nil {
			t.Fatal(err)
		}
		got := digest(res, rows)
		w, ok := want[c.name]
		if !ok {
			t.Errorf("%s: no golden digest; got %#016x", c.name, got)
			continue
		}
		if got != w {
			t.Errorf("%s: digest %#016x, want %#016x (θ %v, %d iterations)", c.name, got, w, res.Transform.Theta, res.Iterations)
		}
	}
}

// BenchmarkAlignFrames aligns the frames of simulated samples 2 to 5 onto
// sample 1's at every 25th of 250 steps, the cadence of a quick-scale
// pipeline, with one reused Aligner, for the Fig. 4, Fig. 8 (l = 1, 3,
// 10) and Fig. 11 shapes: type runs of 16 and 17, 20, 6 and 7, 2, and 4.
// Its rows set boundedRunMin: "scan" never takes the bounded search,
// "bounded" takes it on every type run, and "rule" on runs of at least
// boundedRunMin.
func BenchmarkAlignFrames(b *testing.B) {
	steps := make([]int, 0, 11)
	for s := 0; s <= 250; s += 25 {
		steps = append(steps, s)
	}
	for _, sh := range paperShapes() {
		refs, types := simulatedFrames(b, sh.cfg, 1, steps)
		var cases []alignCase
		for seed := uint64(2); seed <= 5; seed++ {
			movs, _ := simulatedFrames(b, sh.cfg, seed, steps)
			for k := range steps {
				cases = append(cases, alignCase{moving: movs[k], reference: refs[k], types: types})
			}
		}
		for _, path := range []struct {
			name      string
			boundFrom int
		}{{"scan", math.MaxInt}, {"bounded", 1}, {"rule", boundedRunMin}} {
			b.Run(sh.name+"/"+path.name, func(b *testing.B) {
				var al Aligner
				alignAll := func() {
					for _, c := range cases {
						if _, _, err := al.icp(c.moving, c.reference, c.types, Options{}, path.boundFrom); err != nil {
							b.Fatal(err)
						}
					}
				}
				alignAll() // size the scratch, as a pipeline worker's first frame does
				b.ReportAllocs()
				for b.Loop() {
					alignAll()
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(cases)), "ns/frame")
			})
		}
	}
}

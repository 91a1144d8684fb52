package sweep

import (
	"context"
	"math"
	"testing"

	"repro/internal/spec"
)

// goldenSeries is one pinned curve: its name and the math.Float64bits of
// every point.
type goldenSeries struct {
	name string
	x, y []uint64
}

// gridGolden pins the grid path's figures: the long-range scenario at
// test scale for two seeds, and custom grids covering the f1 draw range
// on the approximate tier, the f2 draw range with KSG-1, decomposition
// and entropy tracking, the binned estimator with no sim block (and no
// name), and a 2×2 grid of type counts × cut-offs with rc = ∞.
var gridGolden = []struct {
	spec   spec.Spec
	id     string
	title  string
	notes  string
	series []goldenSeries
}{
	{
		spec:  spec.Spec{Version: spec.Version, Name: "long-range", Scenario: "long-range", Scale: "test", Seed: 1},
		id:    "long-range",
		title: "Multi-information vs time: type count x interaction range (n=20, F1)",
		notes: "Paper Secs. 6.1/7.2: long-range interactions organise many-type collectives; under local interactions fewer types organise more.",
		series: []goldenSeries{
			{"l=20,rc=2.5", []uint64{0x0000000000000000, 0x4034000000000000, 0x4044000000000000},
				[]uint64{0x3fd90bd4d5156378, 0xbfb4760fdb4fb41e, 0xbfcc5383541748a6}},
			{"l=20,rc=7.5", []uint64{0x0000000000000000, 0x4034000000000000, 0x4044000000000000},
				[]uint64{0x3fc4d20f677ca41c, 0x3ffbbc23320fa66c, 0x3ffdc897b458ed16}},
			{"l=20,rc=inf", []uint64{0x0000000000000000, 0x4034000000000000, 0x4044000000000000},
				[]uint64{0xbfb0346fabc5de66, 0x4011186931c5ae7c, 0x4022c85c8c64b262}},
			{"l=5,rc=2.5", []uint64{0x0000000000000000, 0x4034000000000000, 0x4044000000000000},
				[]uint64{0x3fd2b1bdf25fc693, 0xbfc01dd5de77d69a, 0xbfcb77b8daf3a41e}},
			{"l=5,rc=7.5", []uint64{0x0000000000000000, 0x4034000000000000, 0x4044000000000000},
				[]uint64{0x3fc64fba72731872, 0x40113ed4ae662a7d, 0x4022351f6ad8a808}},
			{"l=5,rc=inf", []uint64{0x0000000000000000, 0x4034000000000000, 0x4044000000000000},
				[]uint64{0x3fd44702b549dd00, 0x401ee84623ba3cb6, 0x40311a5e68276787}},
		},
	},
	{
		spec:  spec.Spec{Version: spec.Version, Name: "long-range", Scenario: "long-range", Scale: "test", Seed: 7},
		id:    "long-range",
		title: "Multi-information vs time: type count x interaction range (n=20, F1)",
		notes: "Paper Secs. 6.1/7.2: long-range interactions organise many-type collectives; under local interactions fewer types organise more.",
		series: []goldenSeries{
			{"l=20,rc=2.5", []uint64{0x0000000000000000, 0x4034000000000000, 0x4044000000000000},
				[]uint64{0x3fda75e4ef898492, 0xbfc698fb07b1be8c, 0xbfce388c47e55bb2}},
			{"l=20,rc=7.5", []uint64{0x0000000000000000, 0x4034000000000000, 0x4044000000000000},
				[]uint64{0x3fdcb2363e3078c2, 0x3ff7512cfcfd81e3, 0x3ffa25cecc91c7c4}},
			{"l=20,rc=inf", []uint64{0x0000000000000000, 0x4034000000000000, 0x4044000000000000},
				[]uint64{0xbfc17fb60b44098c, 0x4010e5938f15aa4a, 0x4018267556c33d39}},
			{"l=5,rc=2.5", []uint64{0x0000000000000000, 0x4034000000000000, 0x4044000000000000},
				[]uint64{0x3fd4de14effd96ea, 0xbfbd6a2d523cab2b, 0x3f95fbd717d1a71c}},
			{"l=5,rc=7.5", []uint64{0x0000000000000000, 0x4034000000000000, 0x4044000000000000},
				[]uint64{0x3fe4e6bf12296a7c, 0x40119f253c440e5b, 0x401b79877cf2f457}},
			{"l=5,rc=inf", []uint64{0x0000000000000000, 0x4034000000000000, 0x4044000000000000},
				[]uint64{0x3fc8d1e0c0c43ee2, 0x40022612ad242c6c, 0x400f0c4fa6dff75a}},
		},
	},
	{
		spec: spec.Spec{Version: spec.Version, Name: "f1-approx", Seed: 3,
			Sim:       &spec.Sim{N: 10},
			Ensemble:  &spec.Ensemble{M: 16, Steps: 8, RecordEvery: 4},
			Estimator: &spec.Estimator{Tier: "approx", Subsample: 6},
			Sweep: &spec.Sweep{TypeCounts: []int{2}, Cutoffs: []float64{5}, Repeats: 2,
				Force: &spec.GridForce{Family: "f1", K: 2, RLo: 1.5, RHi: 4}}},
		id:    "f1-approx",
		title: "Custom grid \"f1-approx\": mean MI vs time per (l, rc) cell (f1 family)",
		notes: "n=10, 2 repeats per cell, master seed splits per (cell, repeat).",
		series: []goldenSeries{
			{"l=2,rc=5", []uint64{0x0000000000000000, 0x4010000000000000, 0x4020000000000000},
				[]uint64{0x3fc38adbfb7cf36e, 0x3ff3da02d0e414e1, 0x3ff5497802f4c5c6}},
		},
	},
	{
		spec: spec.Spec{Version: spec.Version, Name: "f2-ksg1", Seed: 4,
			Sim:       &spec.Sim{N: 9},
			Ensemble:  &spec.Ensemble{M: 12, Steps: 8, RecordEvery: 4},
			Estimator: &spec.Estimator{Kind: "ksg1", Decompose: true, TrackEntropies: true},
			Sweep: &spec.Sweep{TypeCounts: []int{3}, Cutoffs: []float64{-1}, Repeats: 2,
				Force: &spec.GridForce{Family: "f2", KLo: 2, KHi: 5}}},
		id:    "f2-ksg1",
		title: "Custom grid \"f2-ksg1\": mean MI vs time per (l, rc) cell (f2 family)",
		notes: "n=9, 2 repeats per cell, master seed splits per (cell, repeat).",
		series: []goldenSeries{
			{"l=3,rc=inf", []uint64{0x0000000000000000, 0x4010000000000000, 0x4020000000000000},
				[]uint64{0x3fc07aa3bcb1a1f8, 0xbfa4e47ae674d7d2, 0x3f782b43244d1c82}},
		},
	},
	{
		spec: spec.Spec{Version: spec.Version, Seed: 5,
			Ensemble:  &spec.Ensemble{M: 12, Steps: 6, RecordEvery: 3},
			Estimator: &spec.Estimator{Kind: "binned", Bins: 3},
			Sweep: &spec.Sweep{TypeCounts: []int{2}, Cutoffs: []float64{6}, Repeats: 1,
				Force: &spec.GridForce{Family: "f1"}}},
		id:    "grid",
		title: "Custom grid \"grid\": mean MI vs time per (l, rc) cell (f1 family)",
		notes: "n=20, 1 repeats per cell, master seed splits per (cell, repeat).",
		series: []goldenSeries{
			{"l=2,rc=6", []uint64{0x0000000000000000, 0x4008000000000000, 0x4018000000000000},
				[]uint64{0xc01638e461ca3048, 0xc019749af52f88e0, 0xc0075a0ff8d1cf20}},
		},
	},
	{
		spec: spec.Spec{Version: spec.Version, Name: "two-by-two", Scale: "test", Seed: 6,
			Sim:      &spec.Sim{N: 8},
			Ensemble: &spec.Ensemble{M: 12, Steps: 8, RecordEvery: 4},
			Sweep: &spec.Sweep{TypeCounts: []int{1, 3}, Cutoffs: []float64{3, 0},
				Force: &spec.GridForce{Family: "f1"}}},
		id:    "two-by-two",
		title: "Custom grid \"two-by-two\": mean MI vs time per (l, rc) cell (f1 family)",
		notes: "n=8, 2 repeats per cell, master seed splits per (cell, repeat).",
		series: []goldenSeries{
			{"l=1,rc=3", []uint64{0x0000000000000000, 0x4010000000000000, 0x4020000000000000},
				[]uint64{0x3fc5c7ba2c572be8, 0x3fed09bf112378ec, 0x3feac87f52841003}},
			{"l=1,rc=inf", []uint64{0x0000000000000000, 0x4010000000000000, 0x4020000000000000},
				[]uint64{0x3fd4d8d38d7dc9f0, 0x3ff5331ff261485e, 0x3ffaccac0d4b711c}},
			{"l=3,rc=3", []uint64{0x0000000000000000, 0x4010000000000000, 0x4020000000000000},
				[]uint64{0x3fbff52e98ef51f4, 0x3fc30c266087dcd8, 0xbfb04c065906edf2}},
			{"l=3,rc=inf", []uint64{0x0000000000000000, 0x4010000000000000, 0x4020000000000000},
				[]uint64{0x3fab17a8414b3cc6, 0x3fe2b1b599c564c7, 0x3ff150f67f0d537b}},
		},
	},
}

// TestGridFigureGoldenBits compares every pinned grid figure — ID,
// title, notes, series names and the bits of every point — with fixed
// values, so a change to how grid cells are built, seeded or reduced
// cannot shift a bit unnoticed. The other grid tests compare the grid
// path with itself.
func TestGridFigureGoldenBits(t *testing.T) {
	for i, c := range gridGolden {
		fd, err := RunSpec(context.Background(), nil, c.spec)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if fd.ID != c.id || fd.Title != c.title || fd.Notes != c.notes {
			t.Errorf("case %d: ID, title, notes = %q, %q, %q; want %q, %q, %q", i, fd.ID, fd.Title, fd.Notes, c.id, c.title, c.notes)
		}
		if len(fd.Series) != len(c.series) {
			t.Errorf("case %d: %d series, want %d", i, len(fd.Series), len(c.series))
			continue
		}
		for s, want := range c.series {
			got := fd.Series[s]
			if got.Name != want.name {
				t.Errorf("case %d: series %d named %q, want %q", i, s, got.Name, want.name)
			}
			for _, axis := range []struct {
				name string
				vals []float64
				bits []uint64
			}{{"X", got.X, want.x}, {"Y", got.Y, want.y}} {
				if len(axis.vals) != len(axis.bits) {
					t.Errorf("case %d: series %q has %d %s points, want %d", i, want.name, len(axis.vals), axis.name, len(axis.bits))
					continue
				}
				for j, v := range axis.vals {
					if b := math.Float64bits(v); b != axis.bits[j] {
						t.Errorf("case %d: series %q %s[%d] bits = %#016x, want %#016x", i, want.name, axis.name, j, b, axis.bits[j])
					}
				}
			}
		}
	}
}

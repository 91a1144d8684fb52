package spec

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/align"
	"repro/internal/experiment"
	"repro/internal/forces"
	"repro/internal/observer"
	"repro/internal/rngx"
	"repro/internal/sim"
)

// fingerprintExcluded lists the pipeline leaves PipelineFingerprint must
// not hash, each with the reason it cannot change a result. A new
// runtime-only knob joins this list; every other leaf must move the
// fingerprint. Observer.Align.Workers is not here: the observer text
// frozen into the recipe carries it, so it is the one runtime knob the
// fingerprint hashes (no spec sets it).
var fingerprintExcluded = map[string]string{
	"Name":             "a label; the caller hashes the run ID as the id argument",
	"Workers":          "estimation parallelism; results are bit-identical for every count",
	"SampleWorkers":    "within-step parallelism; results are bit-identical for every count",
	"RetainEnsemble":   "keeps the raw trajectories; the numbers are unchanged",
	"Tokens":           "shared worker budget; results never depend on it",
	"Engines":          "engine recycling; results never depend on it",
	"OnProgress":       "progress callback; observability only",
	"Ensemble.Workers": "sample parallelism; every sample runs on its own positional seed",
	"Ensemble.Tokens":  "shared worker budget; results never depend on it",
}

// approxOnly lists the leaves that key the fingerprint on the
// approximate tier alone: an exact-tier pipeline hashes the recipe frozen
// before the tier existed, byte for byte.
var approxOnly = map[string]bool{"Tier": true, "Subsample": true}

// TestFingerprintCoversEveryLeaf moves every leaf reachable from
// experiment.Pipeline, and the id argument, by one step and requires
// PipelineFingerprint to change, except as the two lists above say. A
// float moves by one ulp, an integer by one, a bool flips, a string
// grows a byte, and a nil slice, pointer or func becomes non-nil; the
// force is rebuilt through forces.Spec.Build with one matrix entry moved
// by one ulp. A leaf the walk cannot move fails the test, so a new knob
// cannot be left out of the checkpoint key without notice.
func TestFingerprintCoversEveryLeaf(t *testing.T) {
	type base struct {
		id string
		p  experiment.Pipeline
	}
	var bases []base
	for _, name := range []string{"run.json", "approx-run.json"} {
		sp, err := Load(filepath.Join("testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		p, err := sp.Pipeline()
		if err != nil {
			t.Fatal(err)
		}
		bases = append(bases, base{sp.Name, p})
	}
	// An F² run, so that Sigma and Tau are moved too.
	f2 := experiment.Fig8Specs(experiment.Scale{M: 16, Steps: 20, Repeats: 1}, 2, 1)[1]
	bases = append(bases, base{f2.ID, f2.Pipeline})

	reached := map[string]bool{}
	for _, b := range bases {
		want, ok := PipelineFingerprint(b.id, b.p)
		if !ok {
			t.Fatalf("%s: not fingerprintable", b.id)
		}
		if fp, _ := PipelineFingerprint(b.id+"x", b.p); fp == want {
			t.Errorf("%s: moving the id argument left the fingerprint at %016x", b.id, want)
		}
		p := b.p
		moveLeaves(t, reflect.ValueOf(&p).Elem(), "", func(leaf string) {
			name, _, _ := strings.Cut(leaf, "[")
			reached[name] = true
			_, excluded := fingerprintExcluded[name]
			moves := !excluded
			if approxOnly[name] {
				moves = b.p.Tier == experiment.TierApprox
			}
			fp, ok := PipelineFingerprint(b.id, p)
			switch {
			case !ok:
				t.Errorf("%s: moving %s made the pipeline unfingerprintable", b.id, leaf)
			case moves && fp == want:
				t.Errorf("%s: moving %s left the fingerprint at %016x", b.id, leaf, want)
			case !moves && fp != want:
				t.Errorf("%s: moving %s changed the fingerprint from %016x to %016x", b.id, leaf, want, fp)
			}
		})
	}
	for name := range fingerprintExcluded {
		if !reached[name] {
			t.Errorf("excluded leaf %s is not in the pipeline", name)
		}
	}
	for _, f := range reflect.VisibleFields(reflect.TypeFor[forces.Spec]()) {
		if f.Type == reflect.TypeFor[[][]float64]() && !reached["Ensemble.Sim.Force."+f.Name] {
			t.Errorf("no base pipeline has a %s matrix to move", f.Name)
		}
	}
}

// moveLeaves moves each leaf under v by one step in place, calls moved
// with the leaf's path, and puts the leaf back.
func moveLeaves(t *testing.T, v reflect.Value, path string, moved func(leaf string)) {
	t.Helper()
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			f := v.Type().Field(i)
			if !f.IsExported() {
				t.Fatalf("%s: unexported field %s of %s cannot be moved", path, f.Name, v.Type())
			}
			leaf := f.Name
			if path != "" {
				leaf = path + "." + f.Name
			}
			moveLeaves(t, v.Field(i), leaf, moved)
		}
		return
	case reflect.Interface:
		if v.Type() != reflect.TypeFor[forces.Scaling]() {
			t.Fatalf("%s: interface %s cannot be moved", path, v.Type())
		}
		moveForce(t, v, path, moved)
		return
	case reflect.Slice:
		if !v.IsNil() {
			for i := 0; i < v.Len(); i++ {
				moveLeaves(t, v.Index(i), fmt.Sprintf("%s[%d]", path, i), moved)
			}
			return
		}
	}
	old := reflect.New(v.Type()).Elem()
	old.Set(v)
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(!v.Bool())
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(v.Int() + 1)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(v.Uint() + 1)
	case reflect.Float64:
		v.SetFloat(ulpStep(v.Float()))
	case reflect.String:
		v.SetString(v.String() + "x")
	case reflect.Slice: // nil
		v.Set(reflect.MakeSlice(v.Type(), 1, 1))
	case reflect.Pointer:
		if !v.IsNil() {
			t.Fatalf("%s: only a nil pointer can be moved", path)
		}
		v.Set(reflect.New(v.Type().Elem()))
	case reflect.Func:
		if !v.IsNil() {
			t.Fatalf("%s: only a nil func can be moved", path)
		}
		v.Set(reflect.MakeFunc(v.Type(), func([]reflect.Value) []reflect.Value { return nil })) // never called
	default:
		t.Fatalf("%s: a %s cannot be moved", path, v.Kind())
	}
	moved(path)
	v.Set(old)
}

// moveForce moves each entry of the force's forces.Spec matrices by one
// ulp and rebuilds the force through Build. Entry (a, b) moves with
// (b, a): the matrices are symmetric.
func moveForce(t *testing.T, v reflect.Value, path string, moved func(leaf string)) {
	t.Helper()
	old := v.Interface().(forces.Scaling)
	fs, err := forces.ToSpec(old)
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	sv := reflect.ValueOf(&fs).Elem()
	for i := 0; i < sv.NumField(); i++ {
		name := sv.Type().Field(i).Name
		if name == "Family" {
			continue // names the law the matrices parameterise
		}
		rows, ok := sv.Field(i).Interface().([][]float64)
		if !ok {
			t.Fatalf("%s.%s: a forces.Spec field of type %s cannot be moved", path, name, sv.Field(i).Type())
		}
		for a := range rows {
			for b := a; b < len(rows); b++ {
				m := make([][]float64, len(rows))
				for r := range rows {
					m[r] = slices.Clone(rows[r])
				}
				m[a][b] = ulpStep(m[a][b])
				m[b][a] = m[a][b]
				sv.Field(i).Set(reflect.ValueOf(m))
				f, err := fs.Build()
				if err != nil {
					t.Fatalf("%s.%s[%d][%d]: %v", path, name, a, b, err)
				}
				v.Set(reflect.ValueOf(f))
				moved(fmt.Sprintf("%s.%s[%d][%d]", path, name, a, b))
			}
		}
		sv.Field(i).Set(reflect.ValueOf(rows))
	}
	v.Set(reflect.ValueOf(old))
}

// ulpStep returns the next float above x, or below it at +Inf.
func ulpStep(x float64) float64 {
	if y := math.Nextafter(x, math.Inf(1)); y != x {
		return y
	}
	return math.Nextafter(x, 0)
}

// legacyObserver is observer.Config in its layout when the recipe was
// frozen: align.Options then also carried TypeScaleFactor and
// BruteForceNN. The key holds its %+v text. Named types are held as
// their underlying types, whose text no method added later can change.
type legacyObserver struct {
	Align struct {
		ICP struct {
			MaxIterations   int
			Tolerance       float64
			TypeScaleFactor float64
			Restarts        int
			BruteForceNN    bool
		}
		Reference int
		Workers   int
	}
	KMeansK   int
	Seed      uint64
	SkipAlign bool
}

// legacyForce is forces.Spec in its layout when the recipe was frozen.
// The key holds its %+v text, so a field added to forces.Spec must not
// reach the reference.
type legacyForce struct {
	Family string
	K      [][]float64
	R      [][]float64
	Sigma  [][]float64
	Tau    [][]float64
}

// legacyKeyText is the checkpoint key's text as the frozen fmt recipe
// prints it, and whether the force has one. It is the reference
// appendKey must match byte for byte; checkpoints written by earlier
// releases are named by the FNV-1a hash of this text.
func legacyKeyText(id string, p experiment.Pipeline) ([]byte, bool) {
	if p.Ensemble.Sim.Force == nil {
		return nil, false
	}
	fs, err := forces.ToSpec(p.Ensemble.Sim.Force)
	if err != nil {
		return nil, false
	}
	var b bytes.Buffer
	fmt.Fprintf(&b, "run|%s|%s|%d|%d|%t|%t|", id, string(p.Estimator), p.K, p.Bins, p.Decompose, p.TrackEntropies)
	ec := p.Ensemble
	fmt.Fprintf(&b, "ens|%d|%d|%d|%d|", ec.M, ec.Steps, ec.RecordEvery, ec.Seed)
	s := ec.Sim
	fmt.Fprintf(&b, "sim|%d|%v|%g|%g|%g|%g|%g|%d|", s.N, s.Types, s.Cutoff, s.Dt, s.NoiseVariance, s.InitRadius, s.EquilibriumThreshold, s.EquilibriumWindow)
	var o legacyObserver
	o.Align.ICP.MaxIterations = p.Observer.Align.ICP.MaxIterations
	o.Align.ICP.Tolerance = p.Observer.Align.ICP.Tolerance
	o.Align.ICP.Restarts = p.Observer.Align.ICP.Restarts
	o.Align.Reference = int(p.Observer.Align.Reference)
	o.Align.Workers = p.Observer.Align.Workers
	o.KMeansK, o.Seed, o.SkipAlign = p.Observer.KMeansK, p.Observer.Seed, p.Observer.SkipAlign
	fmt.Fprintf(&b, "obs|%+v|", o)
	fmt.Fprintf(&b, "force|%+v", legacyForce{Family: fs.Family, K: fs.K, R: fs.R, Sigma: fs.Sigma, Tau: fs.Tau})
	if p.Tier == experiment.TierApprox {
		fmt.Fprintf(&b, "|tier|%s|%d", string(p.Tier), p.Subsample)
	}
	return b.Bytes(), true
}

// checkLegacyKey fails t unless appendKey writes legacyKeyText's bytes
// for (id, p) and PipelineFingerprint returns their FNV-1a hash, or
// both say the pipeline has no key.
func checkLegacyKey(t testing.TB, id string, p experiment.Pipeline) {
	t.Helper()
	want, wantOK := legacyKeyText(id, p)
	got, ok := appendKey(nil, nil, id, p)
	if ok != wantOK || ok && !bytes.Equal(got, want) {
		t.Fatalf("%q: key text (ok %t)\n%s\nlegacy text (ok %t)\n%s", id, ok, got, wantOK, want)
	}
	h := fnv.New64a()
	h.Write(want)
	if fp, ok := PipelineFingerprint(id, p); ok != wantOK || ok && fp != h.Sum64() {
		t.Fatalf("%q: fingerprint %016x (ok %t), legacy key %016x (ok %t)", id, fp, ok, h.Sum64(), wantOK)
	}
}

// capturingSweeper records the runs a figure driver hands it and fails
// the sweep, so the driver returns without running them.
type capturingSweeper struct{ runs []experiment.SweepSpec }

var errCaptured = errors.New("runs captured")

func (c *capturingSweeper) Sweep(_ context.Context, specs []experiment.SweepSpec) ([]*experiment.Result, error) {
	c.runs = append(c.runs, specs...)
	return nil, errCaptured
}

// paperRuns returns the runs of the paper's figures at quick scale:
// every Fig. 8 run (l = 1…10), the Fig. 4 and Fig. 11 pipelines, and
// the runs the Fig. 9 and Fig. 10 drivers sweep.
func paperRuns(t testing.TB) []experiment.SweepSpec {
	t.Helper()
	sc := experiment.QuickScale()
	runs := experiment.Fig8Specs(sc, 10, 21)
	runs = append(runs,
		experiment.SweepSpec{ID: "fig4", Pipeline: experiment.Fig4PipelineOf(sc, 4)},
		experiment.SweepSpec{ID: "fig11", Pipeline: experiment.Fig11PipelineOf(sc, 11)})
	var c capturingSweeper
	if _, err := experiment.Fig9CutoffSweep(context.Background(), &c, sc, 9); !errors.Is(err, errCaptured) {
		t.Fatalf("Fig9CutoffSweep: %v", err)
	}
	if _, err := experiment.Fig10TypesVsCutoff(context.Background(), &c, sc, 10); !errors.Is(err, errCaptured) {
		t.Fatalf("Fig10TypesVsCutoff: %v", err)
	}
	return append(runs, c.runs...)
}

// customForce is a Scaling with no forces.Spec: it has no key.
type customForce struct{ *forces.F1 }

// TestFingerprintMatchesLegacyCheckpointKey pins PipelineFingerprint to
// the frozen fmt recipe of the checkpoint key (legacyKeyText), byte for
// byte, so checkpoints written by earlier releases keep verifying. If
// this test fails, existing checkpoint directories are silently
// invalidated — bump the checkpoint file version instead of changing
// the recipe. The pipelines are the paper's runs, the golden run specs,
// and hand-built ones whose floats, integers, ids, types, tiers and
// forces reach the corners of the text.
func TestFingerprintMatchesLegacyCheckpointKey(t *testing.T) {
	for _, r := range paperRuns(t) {
		checkLegacyKey(t, r.ID, r.Pipeline)
	}
	for _, name := range []string{"run.json", "approx-run.json"} {
		sp, err := Load(filepath.Join("testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		p, err := sp.Pipeline()
		if err != nil {
			t.Fatal(err)
		}
		checkLegacyKey(t, sp.Name, p)
	}

	tuned := experiment.Pipeline{Name: "c", Observer: observer.Config{KMeansK: 3, Seed: 1 << 63, SkipAlign: true},
		Ensemble: sim.EnsembleConfig{Sim: fig4ish(), M: 8, Steps: 4, RecordEvery: 2, Seed: 3}}
	tuned.Observer.Align = align.FrameOptions{ICP: align.Options{MaxIterations: 20, Tolerance: 1.0 / 3, Restarts: 4},
		Reference: align.RefMedoid, Workers: 7}
	for i, p := range []experiment.Pipeline{
		{Name: "a", Ensemble: sim.EnsembleConfig{Sim: fig4ish(), M: 32, Steps: 40, RecordEvery: 20, Seed: 7}},
		{Name: "b", Estimator: experiment.EstKernel, Bins: 6, TrackEntropies: true,
			Ensemble: sim.EnsembleConfig{Sim: fig4ish(), M: 16, Steps: 10, RecordEvery: 5, Seed: 1}},
		tuned,
	} {
		checkLegacyKey(t, fmt.Sprintf("run-%d", i), p)
	}

	// Every float leaf, and a diagonal and an off-diagonal entry of each
	// force matrix, at values whose text differs between %g's forms.
	specials := []float64{
		math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0, math.NaN(),
		5e-324, 0x1p-1030, math.SmallestNonzeroFloat64 * 3, 2.2250738585072014e-308,
		1e21, 1e20, 123456789, 1234567, 1e-4, 1e-5, 0.1, 1.0 / 3, -2.5, math.MaxFloat64,
	}
	for _, v := range specials {
		cfg := fig4ish()
		cfg.Cutoff, cfg.Dt, cfg.NoiseVariance, cfg.InitRadius, cfg.EquilibriumThreshold = v, v, v, v, v
		p := experiment.Pipeline{Ensemble: sim.EnsembleConfig{Sim: cfg, M: 8, Steps: 4, RecordEvery: 2}}
		p.Observer.Align.ICP.Tolerance = v
		checkLegacyKey(t, fmt.Sprintf("floats=%v", v), p)

		k, r := forces.ConstantMatrix(3, 2), forces.ConstantMatrix(3, 5)
		k.Set(1, 1, v)
		r.Set(0, 2, v)
		p.Ensemble.Sim = sim.Config{N: 6, Force: forces.MustF1(k, r), Cutoff: v}
		checkLegacyKey(t, fmt.Sprintf("F1 entries=%v", v), p)

		k, sigma, tau := forces.ConstantMatrix(3, 2), forces.ConstantMatrix(3, 1), forces.ConstantMatrix(3, 4)
		k.Set(2, 1, v)
		tau.Set(0, 0, 7)
		sigma.Set(1, 0, v)
		p.Ensemble.Sim.Force = &forces.F2{K: k, Sigma: sigma, Tau: tau}
		checkLegacyKey(t, fmt.Sprintf("F2 entries=%v", v), p)
	}

	// Integers at their extremes, ids fmt must not touch, explicit and
	// empty types, tiers, a zero-type force and one past the stack
	// scratch.
	edge := experiment.Pipeline{Estimator: "ksg1", K: math.MinInt, Bins: math.MaxInt, Decompose: true,
		Ensemble: sim.EnsembleConfig{Sim: fig4ish(), M: -1, Steps: math.MaxInt, RecordEvery: 0, Seed: math.MaxUint64}}
	edge.Ensemble.Sim.EquilibriumWindow = math.MinInt
	edge.Observer = observer.Config{KMeansK: -3, Seed: math.MaxUint64}
	edge.Observer.Align = align.FrameOptions{ICP: align.Options{MaxIterations: math.MaxInt, Restarts: math.MinInt},
		Reference: -1, Workers: math.MaxInt}
	for _, id := range []string{"", "\xff\xfe\x00|run|%d%s%!", "ünïcödé-✓", strings.Repeat("x", 5000)} {
		checkLegacyKey(t, id, edge)
	}
	for _, types := range [][]int{nil, {}, {0, 1, 2, 0, 1, 2}, {-1, math.MaxInt, math.MinInt}} {
		p := edge
		p.Ensemble.Sim.Types = types
		checkLegacyKey(t, fmt.Sprintf("types=%v", types), p)
	}
	for _, tier := range []experiment.EstimatorTier{"", experiment.TierExact, experiment.TierApprox, "approximate"} {
		for _, r := range []int{0, 16, -7} {
			p := edge
			p.Tier, p.Subsample = tier, r
			checkLegacyKey(t, fmt.Sprintf("tier=%s r=%d", tier, r), p)
		}
	}
	for _, f := range []forces.Scaling{
		&forces.F1{},
		&forces.F2{},
		forces.RandomF1(keyTypes+5, 1, 10, 2, 8, rngx.Split(1, 2)),
		forces.RandomF2(keyTypes+5, 1, 10, 1, 10, rngx.Split(3, 4)),
		nil,
		customForce{forces.MustF1(forces.ConstantMatrix(2, 1), forces.ConstantMatrix(2, 3))},
	} {
		p := edge
		p.Ensemble.Sim.Force = f
		checkLegacyKey(t, fmt.Sprintf("force %T", f), p)
	}
}

// TestPipelineFingerprintAllocationFree: keying a run costs no heap
// allocation for any run of the paper's figures, Figs. 9 and 10's 20
// types under F¹ included: the key text fits the stack scratch.
func TestPipelineFingerprintAllocationFree(t *testing.T) {
	for _, r := range paperRuns(t) {
		if allocs := testing.AllocsPerRun(5, func() { PipelineFingerprint(r.ID, r.Pipeline) }); allocs != 0 {
			t.Errorf("%s: PipelineFingerprint allocates %v times, want 0", r.ID, allocs)
		}
	}
}

// BenchmarkPipelineFingerprint keys the 40 runs of perfbench's fig8
// grid (l = 1…10, 4 repeats at quick scale) per op, as a sweep's
// set-up does.
func BenchmarkPipelineFingerprint(b *testing.B) {
	runs := experiment.Fig8Specs(experiment.QuickScale(), 10, 21)
	b.ReportAllocs()
	for b.Loop() {
		for _, r := range runs {
			if _, ok := PipelineFingerprint(r.ID, r.Pipeline); !ok {
				b.Fatalf("%s: no fingerprint", r.ID)
			}
		}
	}
}

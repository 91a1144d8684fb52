package spec

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/align"
	"repro/internal/experiment"
	"repro/internal/forces"
	"repro/internal/observer"
	"repro/internal/sim"
)

func fig4ish() sim.Config {
	r := forces.MustMatrix([][]float64{
		{2.5, 5.0, 4.0},
		{5.0, 2.5, 2.0},
		{4.0, 2.0, 3.5},
	})
	return sim.Config{N: 50, Force: forces.MustF1(forces.ConstantMatrix(3, 1), r), Cutoff: 5}
}

func runSpec(t *testing.T) Spec {
	t.Helper()
	sp, err := New("golden-run",
		WithSim(fig4ish()),
		WithEnsemble(64, 120, 20),
		WithSeed(2012),
		WithEstimator("ksg2", 4),
		WithDecomposition(),
		WithObserver(Observer{KMeansK: 3, Seed: 9}),
	)
	if err != nil {
		t.Fatal(err)
	}
	return sp
}

// TestJSONRoundTripLossless: marshal → unmarshal → marshal must be a
// fixed point, and the decoded value must equal the original, for each
// spec kind.
func TestJSONRoundTripLossless(t *testing.T) {
	grid, err := New("golden-grid",
		WithGrid([]int{20, 5}, []float64{2.5, 7.5, -1}, "f1"),
		WithGridN(20),
		WithRepeats(3),
		WithScale("test"),
		WithSeed(7),
	)
	if err != nil {
		t.Fatal(err)
	}
	scenario, err := New("fig8", WithScenario("fig8"), WithScale("quick"), WithSeed(2012))
	if err != nil {
		t.Fatal(err)
	}
	for _, sp := range []Spec{runSpec(t), grid, scenario} {
		b1, err := json.Marshal(sp.Normalized())
		if err != nil {
			t.Fatal(err)
		}
		got, err := Parse(b1, "roundtrip")
		if err != nil {
			t.Fatalf("%s: %v", sp.Name, err)
		}
		if !reflect.DeepEqual(got, sp.Normalized()) {
			t.Fatalf("%s: round-trip changed the spec:\nwant %+v\ngot  %+v", sp.Name, sp, got)
		}
		b2, err := json.Marshal(got)
		if err != nil {
			t.Fatal(err)
		}
		if string(b1) != string(b2) {
			t.Fatalf("%s: JSON not a fixed point:\n%s\n%s", sp.Name, b1, b2)
		}
	}
}

// TestPipelineRoundTrip: FromPipeline and Pipeline are inverses, so
// a pipeline captured as a spec runs as exactly the same experiment.
func TestPipelineRoundTrip(t *testing.T) {
	p := experiment.Pipeline{
		Name:      "rt",
		Estimator: experiment.EstKSG1,
		K:         3,
		Decompose: true,
		Observer:  observer.Config{KMeansK: 2, Seed: 5},
		Ensemble: sim.EnsembleConfig{
			Sim: fig4ish(), M: 48, Steps: 60, RecordEvery: 30, Seed: 99,
		},
		RetainEnsemble: true,
	}
	sp, err := FromPipeline(p)
	if err != nil {
		t.Fatal(err)
	}
	back, err := sp.Pipeline()
	if err != nil {
		t.Fatal(err)
	}
	// The force survives as a rebuilt value; compare via its spec form.
	wantF, _ := forces.ToSpec(p.Ensemble.Sim.Force)
	gotF, _ := forces.ToSpec(back.Ensemble.Sim.Force)
	if !reflect.DeepEqual(wantF, gotF) {
		t.Fatalf("force changed: %+v vs %+v", wantF, gotF)
	}
	p.Ensemble.Sim.Force, back.Ensemble.Sim.Force = nil, nil
	if !reflect.DeepEqual(p, back) {
		t.Fatalf("pipeline changed:\nwant %+v\ngot  %+v", p, back)
	}
	// And through JSON.
	b, err := json.Marshal(sp)
	if err != nil {
		t.Fatal(err)
	}
	sp2, err := Parse(b, "rt")
	if err != nil {
		t.Fatal(err)
	}
	fp1, err := sp.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	fp2, err := sp2.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if fp1 != fp2 {
		t.Fatalf("fingerprint changed across JSON: %x vs %x", fp1, fp2)
	}
}

// TestFingerprintMatchesLegacyCheckpointKey pins PipelineFingerprint to
// the exact byte recipe of the pre-Spec sweep checkpoint key (reproduced
// inline here), so checkpoints written by earlier releases keep
// verifying. If this test fails, existing checkpoint directories are
// silently invalidated — bump the checkpoint file version instead of
// changing the recipe.
func TestFingerprintMatchesLegacyCheckpointKey(t *testing.T) {
	// legacyObserver is observer.Config in its layout when the recipe was
	// frozen: align.Options then also carried TypeScaleFactor and
	// BruteForceNN. The key hashes its %+v text.
	type legacyObserver struct {
		Align struct {
			ICP struct {
				MaxIterations   int
				Tolerance       float64
				TypeScaleFactor float64
				Restarts        int
				BruteForceNN    bool
			}
			Reference align.Reference
			Workers   int
		}
		KMeansK   int
		Seed      uint64
		SkipAlign bool
	}
	legacy := func(id string, p experiment.Pipeline) (uint64, bool) {
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
		var o legacyObserver
		o.Align.ICP.MaxIterations = p.Observer.Align.ICP.MaxIterations
		o.Align.ICP.Tolerance = p.Observer.Align.ICP.Tolerance
		o.Align.ICP.Restarts = p.Observer.Align.ICP.Restarts
		o.Align.Reference = p.Observer.Align.Reference
		o.Align.Workers = p.Observer.Align.Workers
		o.KMeansK, o.Seed, o.SkipAlign = p.Observer.KMeansK, p.Observer.Seed, p.Observer.SkipAlign
		fmt.Fprintf(h, "obs|%+v|", o)
		fmt.Fprintf(h, "force|%+v", fspec)
		return h.Sum64(), true
	}
	tuned := experiment.Pipeline{Name: "c", Observer: observer.Config{KMeansK: 3, Seed: 1 << 63, SkipAlign: true},
		Ensemble: sim.EnsembleConfig{Sim: fig4ish(), M: 8, Steps: 4, RecordEvery: 2, Seed: 3}}
	tuned.Observer.Align = align.FrameOptions{ICP: align.Options{MaxIterations: 20, Tolerance: 1.0 / 3, Restarts: 4},
		Reference: align.RefMedoid, Workers: 7}
	pipelines := []experiment.Pipeline{
		{Name: "a", Ensemble: sim.EnsembleConfig{Sim: fig4ish(), M: 32, Steps: 40, RecordEvery: 20, Seed: 7}},
		{Name: "b", Estimator: experiment.EstKernel, Bins: 6, TrackEntropies: true,
			Ensemble: sim.EnsembleConfig{Sim: fig4ish(), M: 16, Steps: 10, RecordEvery: 5, Seed: 1}},
		tuned,
	}
	for i, p := range pipelines {
		id := fmt.Sprintf("run-%d", i)
		want, wantOK := legacy(id, p)
		got, ok := PipelineFingerprint(id, p)
		if ok != wantOK || got != want {
			t.Fatalf("pipeline %d: fingerprint %x (ok=%t), legacy key %x (ok=%t)", i, got, ok, want, wantOK)
		}
	}
	// A custom (non-serialisable) force cannot be fingerprinted.
	if _, ok := PipelineFingerprint("x", experiment.Pipeline{}); ok {
		t.Fatal("nil force fingerprinted")
	}
}

// goldenFingerprints pins the fingerprint of each golden spec file.
// These values must NEVER change: a spec serialized today must load and
// fingerprint identically forever, including after future field
// additions (new fields must be omitempty so absent-field JSON — and the
// run fingerprint recipe — stay stable).
var goldenFingerprints = map[string]string{
	"run.json":        "be86699539325bde",
	"grid.json":       "08070089628c7d38",
	"scenario.json":   "5fcf193f4ef640c1",
	"approx-run.json": "c271a9cdf582d515",
}

// TestGoldenSpecs loads each golden file, requires a lossless round-trip
// back to the identical bytes, and requires the pinned fingerprint.
func TestGoldenSpecs(t *testing.T) {
	for name, wantFP := range goldenFingerprints {
		path := filepath.Join("testdata", name)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		sp, err := Load(path)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		b, err := sp.MarshalIndent()
		if err != nil {
			t.Fatal(err)
		}
		if string(b) != string(data) {
			t.Errorf("%s: round-trip changed the file:\n--- on disk\n%s--- re-marshalled\n%s", name, data, b)
		}
		fp, err := sp.Fingerprint()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := fmt.Sprintf("%016x", fp); got != wantFP {
			t.Errorf("%s: fingerprint %s, golden %s — a changed fingerprint invalidates every checkpoint on disk", name, got, wantFP)
		}
	}
}

// TestEstimatorKindsRoundTripThroughSpec: every Est* constant survives
// spec JSON and resolves back to a valid pipeline estimator.
func TestEstimatorKindsRoundTripThroughSpec(t *testing.T) {
	for _, kind := range experiment.ValidEstimators() {
		sp, err := New(string(kind),
			WithSim(fig4ish()),
			WithEnsemble(32, 10, 5),
			WithEstimator(string(kind), 2),
		)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		b, err := json.Marshal(sp.Normalized())
		if err != nil {
			t.Fatal(err)
		}
		got, err := Parse(b, string(kind))
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		p, err := got.Pipeline()
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if p.Estimator != kind {
			t.Fatalf("kind %q became %q", kind, p.Estimator)
		}
	}
}

// TestValidateTypedErrors: Validate reports every problem as *SpecError
// with a JSON field path, and unknown estimator kinds carry the
// experiment layer's typed error message listing the valid kinds.
func TestValidateTypedErrors(t *testing.T) {
	sp := Spec{
		Version:   99,
		Scale:     "huge",
		Sim:       &Sim{N: -1},
		Ensemble:  &Ensemble{M: 4, Steps: 10},
		Estimator: &Estimator{Kind: "magic", K: -2},
		Observer:  &Observer{Reference: "median"},
	}
	err := sp.Validate()
	if err == nil {
		t.Fatal("invalid spec accepted")
	}
	var se *SpecError
	if !errors.As(err, &se) {
		t.Fatalf("no *SpecError in %v", err)
	}
	for _, field := range []string{"version", "scale", "estimator.kind", "estimator.k", "observer.reference", "sim.n"} {
		found := false
		for _, e := range multiErrors(err) {
			if e.Field == field {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("no error for field %q in:\n%v", field, err)
		}
	}
	if got := err.Error(); !contains(got, "valid kinds: ksg2, ksg1, ksg-paper, kernel, binned") {
		t.Errorf("unknown-estimator error does not list valid kinds:\n%s", got)
	}

	// A sim-only spec is a valid description (Session.System, sopsim)…
	simOnly := Spec{Sim: mustSim(t, fig4ish())}
	if err := simOnly.Validate(); err != nil {
		t.Fatalf("sim-only spec rejected: %v", err)
	}
	// …but it has no runnable pipeline.
	if _, err := simOnly.Pipeline(); err == nil {
		t.Fatal("sim-only spec produced a pipeline")
	}
	// The defaulted k is checked against the resolved M, like the
	// pipeline itself would.
	tooSmall := Spec{Sim: mustSim(t, fig4ish()), Ensemble: &Ensemble{M: 4, Steps: 10}}
	err = tooSmall.Validate()
	if err == nil || !contains(err.Error(), "estimator.k") {
		t.Fatalf("k >= M not caught: %v", err)
	}
}

// TestTierFingerprintCompat is the tier half of the frozen-recipe
// contract: a spec with no tier field (and one saying "exact"
// explicitly) must fingerprint byte-identically to the pre-tier recipe,
// while switching to the approximate tier — or changing its budget —
// must produce a new identity (the numbers differ, so shared
// checkpoints must not collide).
func TestTierFingerprintCompat(t *testing.T) {
	base := runSpec(t)
	want, err := base.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	exact := base
	est := *exact.Estimator
	est.Tier = "exact"
	exact.Estimator = &est
	fp, err := exact.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if fp != want {
		t.Errorf(`tier "exact" changed the fingerprint: %016x vs %016x`, fp, want)
	}
	approx := base
	estA := *approx.Estimator
	estA.Tier, estA.Subsample = "approx", 16
	approx.Estimator = &estA
	afp, err := approx.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if afp == want {
		t.Error(`tier "approx" did not change the fingerprint`)
	}
	estB := estA
	estB.Subsample = 32
	approx.Estimator = &estB
	bfp, err := approx.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if bfp == afp {
		t.Error("changing Subsample did not change the fingerprint")
	}
}

// TestTierValidationTypedErrors: the tier knobs reject unknown tiers,
// non-KSG kinds, missing/oversized budgets and stray budgets, each as a
// *SpecError naming the offending field.
func TestTierValidationTypedErrors(t *testing.T) {
	mk := func(mut func(*Estimator)) Spec {
		sp := runSpec(t)
		est := *sp.Estimator
		mut(&est)
		sp.Estimator = &est
		return sp
	}
	cases := []struct {
		name  string
		sp    Spec
		field string
	}{
		{"unknown tier", mk(func(e *Estimator) { e.Tier = "fast" }), "estimator.tier"},
		{"non-KSG kind", mk(func(e *Estimator) { e.Kind = "binned"; e.Tier = "approx"; e.Subsample = 8 }), "estimator.tier"},
		{"missing budget", mk(func(e *Estimator) { e.Tier = "approx" }), "estimator.subsample"},
		{"budget at m", mk(func(e *Estimator) { e.Tier = "approx"; e.Subsample = 64 }), "estimator.subsample"},
		{"budget beyond m", mk(func(e *Estimator) { e.Tier = "approx"; e.Subsample = 500 }), "estimator.subsample"},
		{"stray budget", mk(func(e *Estimator) { e.Subsample = 8 }), "estimator.subsample"},
	}
	for _, tc := range cases {
		err := tc.sp.Validate()
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		found := false
		for _, se := range multiErrors(err) {
			if se.Field == tc.field {
				found = true
			}
		}
		if !found {
			t.Errorf("%s: no *SpecError for field %q in %v", tc.name, tc.field, err)
		}
	}

	// A valid approximate-tier spec materialises with the tier threaded
	// through to the pipeline, and survives JSON losslessly.
	sp := mk(func(e *Estimator) { e.Tier = "approx"; e.Subsample = 16 })
	p, err := sp.Pipeline()
	if err != nil {
		t.Fatal(err)
	}
	if p.Tier != experiment.TierApprox || p.Subsample != 16 {
		t.Fatalf("tier not threaded: %+v", p)
	}
	back, err := FromPipeline(p)
	if err != nil {
		t.Fatal(err)
	}
	if back.Estimator.Tier != "approx" || back.Estimator.Subsample != 16 {
		t.Fatalf("FromPipeline dropped the tier: %+v", back.Estimator)
	}
}

// TestCutoffInfinityConvention: ∞ cut-offs survive the JSON round trip
// via the ≤0-means-∞ convention.
func TestCutoffInfinityConvention(t *testing.T) {
	cfg := fig4ish()
	cfg.Cutoff = math.Inf(1)
	s, err := SimFromConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if s.Cutoff != 0 {
		t.Fatalf("infinite cutoff serialised as %g", s.Cutoff)
	}
	back, err := s.Config()
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(back.Cutoff, 1) {
		t.Fatalf("cutoff %g, want +Inf", back.Cutoff)
	}
}

// TestParseRejectsUnknownFields: a typo'd knob fails loudly.
func TestParseRejectsUnknownFields(t *testing.T) {
	if _, err := Parse([]byte(`{"version":1,"scenaro":"fig8"}`), "typo"); err == nil {
		t.Fatal("unknown field accepted")
	}
	if _, err := Parse([]byte(`{"version":99,"scenario":"fig8"}`), "future"); err == nil {
		t.Fatal("future version accepted")
	}
}

// TestParseRejectsBadGrids: every malformed grid sweep fails to load,
// naming the offending field.
func TestParseRejectsBadGrids(t *testing.T) {
	for body, field := range map[string]string{
		`{"version":1,"sweep":{"typeCounts":[1]}}`:                                      "sweep.force",
		`{"version":1,"sweep":{"force":{"family":"f9"}}}`:                               "sweep.force.family",
		`{"version":1,"sweep":{"force":{"family":"f1"},"typeCounts":[0]}}`:              "sweep.typeCounts",
		`{"version":1,"sweep":{"force":{"family":"f2"}},"ensemble":{"m":-1}}`:           "ensemble.m",
		`{"version":1,"sweep":{"force":{"family":"f2"}},"ensemble":{"steps":-1}}`:       "ensemble.steps",
		`{"version":1,"sweep":{"force":{"family":"f2"}},"ensemble":{"recordEvery":-1}}`: "ensemble.recordEvery",
		`{"version":1,"sweep":{"force":{"family":"f2"}},"sim":{"n":-1}}`:                "sim.n",
		`{"version":1,"sweep":{"force":{"family":"f2"}},"estimator":{"k":-1}}`:          "estimator.k",
		`{"version":1,"sweep":{"force":{"family":"f1","rLo":5}}}`:                       "sweep.force.rLo/rHi",
		`{"version":1,"sweep":{"force":{"family":"f2","tauLo":9,"tauHi":2}}}`:           "sweep.force.tauLo/tauHi",
		`{"version":1,"sweep":{"force":{"family":"f1","rLo":-1,"rHi":4}}}`:              "sweep.force.rLo/rHi",
	} {
		_, err := Parse([]byte(body), "grid.json")
		found := false
		for _, e := range multiErrors(errors.Unwrap(err)) { // under the path prefix
			found = found || e.Field == field
		}
		if !found {
			t.Errorf("%s: want an error on %s, got %v", body, field, err)
		}
	}
	if _, err := Parse([]byte(`{`), "truncated"); err == nil {
		t.Error("truncated JSON accepted")
	}
	if _, err := Load(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Error("missing file accepted")
	}
}

func mustSim(t *testing.T, c sim.Config) *Sim {
	t.Helper()
	s, err := SimFromConfig(c)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func multiErrors(err error) []*SpecError {
	type unwrapper interface{ Unwrap() []error }
	var out []*SpecError
	var walk func(error)
	walk = func(e error) {
		if se, ok := e.(*SpecError); ok {
			out = append(out, se)
			return
		}
		if u, ok := e.(unwrapper); ok {
			for _, c := range u.Unwrap() {
				walk(c)
			}
		}
	}
	walk(err)
	return out
}

func contains(s, sub string) bool { return strings.Contains(s, sub) }

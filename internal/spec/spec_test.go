package spec

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

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
		WithDecomposition(),
	)
	if err != nil {
		t.Fatal(err)
	}
	sp.Estimator.Kind, sp.Estimator.K = "ksg2", 4
	sp.Observer = &Observer{KMeansK: 3, Seed: 9}
	if err := sp.Validate(); err != nil {
		t.Fatal(err)
	}
	return sp
}

// runFingerprint is a run spec's checkpoint key: PipelineFingerprint of
// its pipeline, keyed by its name.
func runFingerprint(t *testing.T, sp Spec) uint64 {
	t.Helper()
	p, err := sp.Pipeline()
	if err != nil {
		t.Fatal(err)
	}
	fp, ok := PipelineFingerprint(sp.Name, p)
	if !ok {
		t.Fatalf("%s: the force has no serialisable fingerprint", sp.Name)
	}
	return fp
}

// TestJSONRoundTripLossless: marshal → unmarshal → marshal must be a
// fixed point, and the decoded value must equal the original, for each
// spec kind.
func TestJSONRoundTripLossless(t *testing.T) {
	grid := Spec{Version: Version, Name: "golden-grid", Scale: "test", Seed: 7,
		Sim: &Sim{N: 20},
		Sweep: &Sweep{TypeCounts: []int{20, 5}, Cutoffs: []float64{2.5, 7.5, -1},
			Force: &GridForce{Family: "f1"}, Repeats: 3}}
	scenario := Spec{Version: Version, Name: "fig8", Scenario: "fig8", Scale: "quick", Seed: 2012}
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
	if fp1, fp2 := runFingerprint(t, sp), runFingerprint(t, sp2); fp1 != fp2 {
		t.Fatalf("fingerprint changed across JSON: %x vs %x", fp1, fp2)
	}
}

// goldenFingerprints pins the checkpoint key of each golden run spec.
// These values must NEVER change: a spec serialized today must load and
// fingerprint identically forever, including after future field
// additions (new fields must be omitempty so absent-field JSON — and the
// run fingerprint recipe — stay stable).
var goldenFingerprints = map[string]string{
	"run.json":        "be86699539325bde",
	"approx-run.json": "c271a9cdf582d515",
}

// TestGoldenSpecs loads each golden file, requires a lossless round-trip
// back to the identical bytes, and requires each run spec's pinned
// fingerprint.
func TestGoldenSpecs(t *testing.T) {
	for _, name := range []string{"run.json", "approx-run.json", "grid.json", "scenario.json"} {
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
		if wantFP, ok := goldenFingerprints[name]; ok {
			if got := fmt.Sprintf("%016x", runFingerprint(t, sp)); got != wantFP {
				t.Errorf("%s: fingerprint %s, golden %s — a changed fingerprint invalidates every checkpoint on disk", name, got, wantFP)
			}
		}
	}
}

// largeNSpec is a valid single-run spec of a few dozen bytes that asks
// for ten million particles.
const largeNSpec = `{"sim":{"n":10000000,"force":{"family":"F1","k":[[1]],"r":[[1]]}}}`

// Validating a spec must not cost memory in proportion to its sim.n: the
// omitted types are round-robin, valid without being built.
func TestParseLargeNAllocatesLittle(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	sp, err := Parse([]byte(largeNSpec), "large-n.json")
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if grown := after.TotalAlloc - before.TotalAlloc; grown >= 1<<20 {
		t.Fatalf("parsing a %d-byte spec with n = %d allocated %d bytes, want < 1 MiB", len(largeNSpec), sp.Sim.N, grown)
	}
}

// FuzzParse decodes arbitrary bytes as spec JSON, seeded with the golden
// specs, largeNSpec and an F² Fig. 8 run. Parse must never panic, and a
// spec it accepts must survive MarshalIndent → Parse: MarshalIndent's
// bytes are a fixed point, and a run spec resolves to a pipeline with
// the same PipelineFingerprint (or fails to resolve on both sides),
// whose key text is the frozen fmt recipe's byte for byte.
func FuzzParse(f *testing.F) {
	goldens, err := filepath.Glob(filepath.Join("testdata", "*.json"))
	if err != nil || len(goldens) == 0 {
		f.Fatalf("golden specs: %v (found %d)", err, len(goldens))
	}
	for _, path := range goldens {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(largeNSpec))
	f2, err := FromPipeline(experiment.Fig8Specs(experiment.Scale{M: 16, Steps: 20, Repeats: 1}, 3, 1)[2].Pipeline)
	if err != nil {
		f.Fatal(err)
	}
	f2JSON, err := f2.MarshalIndent()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(f2JSON)
	f.Fuzz(func(t *testing.T, data []byte) {
		sp, err := Parse(data, "fuzz.json")
		if err != nil {
			return
		}
		b, err := sp.MarshalIndent()
		if err != nil {
			t.Fatalf("accepted spec does not marshal: %v", err)
		}
		back, err := Parse(b, "remarshalled.json")
		if err != nil {
			t.Fatalf("re-marshalled spec rejected: %v\n%s", err, b)
		}
		if b2, err := back.MarshalIndent(); err != nil || !bytes.Equal(b, b2) {
			t.Fatalf("MarshalIndent is not a fixed point across Parse (err %v):\n%s\n%s", err, b, b2)
		}
		p, err := sp.Pipeline()
		pBack, errBack := back.Pipeline()
		if (err == nil) != (errBack == nil) {
			t.Fatalf("pipeline error %v became %v across MarshalIndent → Parse", err, errBack)
		}
		if err != nil {
			return
		}
		checkLegacyKey(t, sp.Name, p)
		fp, ok := PipelineFingerprint(sp.Name, p)
		fpBack, okBack := PipelineFingerprint(back.Name, pBack)
		if fp != fpBack || ok != okBack {
			t.Fatalf("fingerprint %016x (ok %t) became %016x (ok %t) across MarshalIndent → Parse", fp, ok, fpBack, okBack)
		}
	})
}

// TestEstimatorKindsRoundTripThroughSpec: every Est* constant survives
// spec JSON and resolves back to a valid pipeline estimator.
func TestEstimatorKindsRoundTripThroughSpec(t *testing.T) {
	for _, kind := range experiment.ValidEstimators() {
		sp, err := New(string(kind),
			WithSim(fig4ish()),
			WithEnsemble(32, 10, 5),
		)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		sp.Estimator = &Estimator{Kind: string(kind), K: 2}
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
	want := runFingerprint(t, base)
	exact := base
	est := *exact.Estimator
	est.Tier = "exact"
	exact.Estimator = &est
	if fp := runFingerprint(t, exact); fp != want {
		t.Errorf(`tier "exact" changed the fingerprint: %016x vs %016x`, fp, want)
	}
	approx := base
	estA := *approx.Estimator
	estA.Tier, estA.Subsample = "approx", 16
	approx.Estimator = &estA
	afp := runFingerprint(t, approx)
	if afp == want {
		t.Error(`tier "approx" did not change the fingerprint`)
	}
	estB := estA
	estB.Subsample = 32
	approx.Estimator = &estB
	if bfp := runFingerprint(t, approx); bfp == afp {
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

// TestParseRejectsUnknownFields: a typo'd knob fails loudly, and so
// does sim.workers: a file that sets the removed force-parallelism knob
// must fail to load rather than run.
func TestParseRejectsUnknownFields(t *testing.T) {
	for _, body := range []string{
		`{"version":1,"scenaro":"fig8"}`,
		`{"version":1,"sim":{"workers":2}}`,
	} {
		if _, err := Parse([]byte(body), "unknown"); err == nil || !strings.Contains(err.Error(), "unknown field") {
			t.Fatalf("%s: err = %v, want an unknown-field error", body, err)
		}
	}
	if _, err := Parse([]byte(`{"version":99,"scenario":"fig8"}`), "future"); err == nil {
		t.Fatal("future version accepted")
	}
}

// TestParseRejectsTrailingData: a valid spec followed by anything but
// whitespace — a second spec, garbage, a stray bracket — fails to load
// instead of running only the first object.
func TestParseRejectsTrailingData(t *testing.T) {
	const first = `{"version":1,"name":"a","scenario":"fig8","scale":"test"}`
	if _, err := Parse([]byte(first+"\n \t\n"), "ok"); err != nil {
		t.Fatalf("trailing whitespace rejected: %v", err)
	}
	for _, tail := range []string{
		`{"version":1,"name":"b","scenario":"fig9","scale":"test"}`,
		`garbage`,
		`]`,
	} {
		if _, err := Parse([]byte(first+"\n"+tail), "trailing"); err == nil || !strings.Contains(err.Error(), "trailing data") {
			t.Errorf("spec followed by %s: err = %v, want a trailing-data error", tail, err)
		}
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

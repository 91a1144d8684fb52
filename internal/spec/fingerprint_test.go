package spec

import (
	"fmt"
	"math"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/experiment"
	"repro/internal/forces"
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

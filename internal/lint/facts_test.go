package lint

import (
	"bytes"
	"encoding/json"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/lint/analysis"
	"repro/internal/lint/load"
)

// fakeFactObjects builds detached type objects to key facts on: a
// function and a type name in a synthetic package. Fact identity is
// (package path, object key, fact type), so a fresh object with the
// same coordinates must resolve the same fact after a decode.
func fakeFactObjects() (*types.Func, *types.TypeName) {
	pkg := types.NewPackage("corpus/p", "p")
	sig := types.NewSignatureType(nil, nil, nil, nil, nil, false)
	fn := types.NewFunc(token.NoPos, pkg, "F", sig)
	tn := types.NewTypeName(token.NoPos, pkg, "T", nil)
	types.NewNamed(tn, types.NewStruct(nil, nil), nil)
	return fn, tn
}

// TestFactGobRoundTrip encodes one fact of every registered type and
// decodes them back: values must survive bit-exactly, and the wire form
// must be canonical (re-encoding the decoded set is byte-identical).
func TestFactGobRoundTrip(t *testing.T) {
	fn, tn := fakeFactObjects()
	facts := analysis.NewFactSet()
	facts.ExportObjectFact(fn, &TaintFact{Ret: 5, Escapes: 2, Sinks: 9, Src: "time.Now"})
	facts.ExportObjectFact(fn, &BoundedFact{})
	facts.ExportObjectFact(fn, &RootMintFact{})
	facts.ExportObjectFact(fn, &ErrWrapFact{Params: 3})
	facts.ExportObjectFact(fn, &AllocFact{Allocates: true})
	facts.ExportObjectFact(tn, &NoHashFact{Fields: []string{"Tokens", "Workers"}})

	data, err := facts.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(data, []byte(analysis.VetxMagic)) {
		t.Fatalf("encoded facts do not start with the vetx magic header")
	}

	got := analysis.NewFactSet()
	if err := got.Decode(data); err != nil {
		t.Fatal(err)
	}
	if got.Len() != facts.Len() {
		t.Fatalf("decoded %d facts, want %d", got.Len(), facts.Len())
	}

	// Resolve through fresh objects with the same coordinates: the wire
	// identity is positional, not pointer-based.
	fn2, tn2 := fakeFactObjects()
	var taint TaintFact
	if !got.ImportObjectFact(fn2, &taint) {
		t.Fatal("TaintFact did not survive the round trip")
	}
	if taint != (TaintFact{Ret: 5, Escapes: 2, Sinks: 9, Src: "time.Now"}) {
		t.Errorf("TaintFact = %+v", taint)
	}
	var bounded BoundedFact
	if !got.ImportObjectFact(fn2, &bounded) {
		t.Error("BoundedFact did not survive the round trip")
	}
	var mint RootMintFact
	if !got.ImportObjectFact(fn2, &mint) {
		t.Error("RootMintFact did not survive the round trip")
	}
	var wrap ErrWrapFact
	if !got.ImportObjectFact(fn2, &wrap) {
		t.Fatal("ErrWrapFact did not survive the round trip")
	}
	if wrap.Params != 3 {
		t.Errorf("ErrWrapFact.Params = %d, want 3", wrap.Params)
	}
	var alloc AllocFact
	if !got.ImportObjectFact(fn2, &alloc) {
		t.Fatal("AllocFact did not survive the round trip")
	}
	if !alloc.Allocates {
		t.Error("AllocFact.Allocates = false, want true")
	}
	var nohash NoHashFact
	if !got.ImportObjectFact(tn2, &nohash) {
		t.Fatal("NoHashFact did not survive the round trip")
	}
	if len(nohash.Fields) != 2 || nohash.Fields[0] != "Tokens" || nohash.Fields[1] != "Workers" {
		t.Errorf("NoHashFact.Fields = %v", nohash.Fields)
	}

	// Canonical form: the decoded set re-encodes byte-identically, so
	// cmd/go's content-addressed cache sees stable .vetx outputs.
	data2, err := got.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, data2) {
		t.Error("re-encoding a decoded fact set changed the bytes")
	}
}

// TestVetxDecodeErrors pins the hard-failure contract: a facts file
// that is not completely readable must error, never pass for empty.
func TestVetxDecodeErrors(t *testing.T) {
	if err := analysis.NewFactSet().Decode([]byte("garbage, not a vetx file")); err == nil {
		t.Error("decoding garbage succeeded")
	} else if !strings.Contains(err.Error(), "not a sopslint facts file") {
		t.Errorf("garbage decode error = %v", err)
	}

	fn, _ := fakeFactObjects()
	facts := analysis.NewFactSet()
	facts.ExportObjectFact(fn, &TaintFact{Ret: 1, Src: "time.Now"})
	data, err := facts.Encode()
	if err != nil {
		t.Fatal(err)
	}
	truncated := data[:len(data)-3]
	if err := analysis.NewFactSet().Decode(truncated); err == nil {
		t.Error("decoding a truncated facts file succeeded")
	} else if !strings.Contains(err.Error(), "corrupt facts file") {
		t.Errorf("truncated decode error = %v", err)
	}

	// Header-only (empty set) is valid: out-of-scope units write these.
	empty, err := analysis.NewFactSet().Encode()
	if err != nil {
		t.Fatal(err)
	}
	if err := analysis.NewFactSet().Decode(empty); err != nil {
		t.Errorf("decoding an empty facts file: %v", err)
	}
}

// TestUnitRejectsCorruptVetx drives the unitchecker entry point against
// a dependency whose .vetx is corrupt: loading the unit must fail with
// an error naming the dependency, not proceed with an empty fact set.
func TestUnitRejectsCorruptVetx(t *testing.T) {
	dir := t.TempDir()
	src := filepath.Join(dir, "x.go")
	if err := os.WriteFile(src, []byte("package x\n"), 0o666); err != nil {
		t.Fatal(err)
	}
	vetx := filepath.Join(dir, "dep.vetx")
	if err := os.WriteFile(vetx, []byte("junk"), 0o666); err != nil {
		t.Fatal(err)
	}
	cfg := map[string]any{
		"ID":          "repro/x",
		"ImportPath":  "repro/x",
		"GoFiles":     []string{src},
		"PackageVetx": map[string]string{"repro/dep": vetx},
		"VetxOutput":  filepath.Join(dir, "out.vetx"),
	}
	data, err := json.Marshal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfgPath := filepath.Join(dir, "vet.cfg")
	if err := os.WriteFile(cfgPath, data, 0o666); err != nil {
		t.Fatal(err)
	}
	_, err = load.Unit(cfgPath, nil)
	if err == nil {
		t.Fatal("loading a unit with a corrupt dependency .vetx succeeded")
	}
	if !strings.Contains(err.Error(), "repro/dep") || !strings.Contains(err.Error(), "not a sopslint facts file") {
		t.Errorf("corrupt vetx error = %v", err)
	}
}

// TestFactFlowRequiresFacts is the negative control for the factflow
// corpus: with each package given its own empty fact store, so nothing
// factflow/a exports reaches factflow/b, the cross-package diagnostics
// in factflow/b disappear — proving they ride imported facts, not some
// local approximation.
func TestFactFlowRequiresFacts(t *testing.T) {
	checks := []Check{{Analyzer: Walltime}, {Analyzer: Dettaint}}
	countB := func(pkgs []*analysis.Package) int {
		t.Helper()
		diags, err := Run(pkgs, checks)
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for _, d := range diags {
			if strings.Contains(filepath.ToSlash(d.Pos.Filename), "factflow/b/") {
				n++
			}
		}
		return n
	}

	pkgs, err := load.Corpus("testdata", "factflow/a", "factflow/b")
	if err != nil {
		t.Fatal(err)
	}
	if n := countB(pkgs); n != 2 {
		t.Errorf("with facts: %d diagnostics in factflow/b, want 2", n)
	}

	pkgs, err = load.Corpus("testdata", "factflow/a", "factflow/b")
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pkgs {
		p.Facts = analysis.NewFactSet()
	}
	if n := countB(pkgs); n != 0 {
		t.Errorf("without facts: %d diagnostics in factflow/b, want 0", n)
	}
}

package analysis

// This file is the summary half of the analysis layer: durable,
// object-keyed facts. A package's fact pass exports facts about the
// package's objects (a function's taint summary, a struct's annotated
// fields); analyzers of that package and of downstream packages import
// them at call/use sites, so one lookup serves a local callee and one
// across a package boundary.
//
// Facts travel two ways, both through the same FactSet:
//
//   - in-process (meta-test, standalone sopslint): every loaded package
//     shares one FactSet, and packages are visited in dependency order,
//     so an import simply sees what a dependency exported moments ago;
//   - under `go vet -vettool` (the unitchecker protocol): each
//     compilation unit decodes the .vetx files of its dependencies into
//     its FactSet before analysis and encodes the whole set — own facts
//     plus re-exported dependency facts, so transitivity survives — to
//     the unit's VetxOutput afterwards.
//
// The wire format is a magic header followed by a gob stream of
// (package, object, fact) triples sorted by key, so identical fact sets
// encode byte-identically and cmd/go's content-addressed build cache
// works. A file without the header, or with a gob stream that does not
// decode cleanly to the end, is a hard error — a truncated or corrupt
// facts file must never be mistaken for an empty one.

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"go/types"
	"reflect"
	"sort"
	"strings"
)

// A Fact is one exported observation about a package-level object.
// Implementations must be pointers to gob-encodable structs, registered
// once via RegisterFact. The AFact method is a marker only.
type Fact interface {
	AFact()
}

// VetxMagic is the header line of a sopslint facts (.vetx) file. The
// version is part of the format identity: bump it when the encoding or
// any registered fact type changes shape.
const VetxMagic = "sopslint-facts-v1\n"

// RegisterFact registers a fact type for gob transport. Call from init;
// registering the same type twice is fine, two distinct types with the
// same struct name is not (the name keys the wire format).
func RegisterFact(f Fact) {
	t := reflect.TypeOf(f)
	if t.Kind() != reflect.Pointer || t.Elem().Kind() != reflect.Struct {
		panic(fmt.Sprintf("RegisterFact: %T is not a pointer to struct", f))
	}
	gob.Register(f)
}

// FactKey addresses one fact: the declaring package's import path, the
// object's stable key within it, and the fact's concrete type.
type FactKey struct {
	Pkg  string
	Obj  string
	Type string
}

// ObjectKey returns the stable within-package key of a package-level
// object: "Name" for functions, types, vars and consts, and
// "RecvType.Name" for methods (the pointer-ness of the receiver does not
// key — a type has one method set namespace).
func ObjectKey(obj types.Object) string {
	if fn, ok := obj.(*types.Func); ok {
		if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
			t := sig.Recv().Type()
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			if n, ok := t.(*types.Named); ok {
				return n.Obj().Name() + "." + fn.Name()
			}
		}
	}
	return obj.Name()
}

// factPkgPath returns the package path a fact about obj is keyed under,
// with any test-variant suffix ("p [p.test]") stripped so facts exported
// while checking a test variant land under the base package.
func factPkgPath(obj types.Object) (string, bool) {
	if obj == nil || obj.Pkg() == nil {
		return "", false
	}
	p := obj.Pkg().Path()
	if i := strings.IndexByte(p, ' '); i >= 0 {
		p = p[:i]
	}
	return p, true
}

func factTypeName(f Fact) string {
	return reflect.TypeOf(f).Elem().Name()
}

// A FactSet is the fact store one analysis run shares: facts exported by
// already-analyzed packages, keyed for import by downstream ones.
type FactSet struct {
	m map[FactKey]Fact
}

// NewFactSet returns an empty fact store.
func NewFactSet() *FactSet {
	return &FactSet{m: map[FactKey]Fact{}}
}

// Len reports the number of stored facts.
func (s *FactSet) Len() int { return len(s.m) }

// ExportObjectFact stores fact about obj, replacing a previous fact of
// the same type.
func (s *FactSet) ExportObjectFact(obj types.Object, fact Fact) {
	pkg, ok := factPkgPath(obj)
	if !ok {
		return
	}
	s.m[FactKey{Pkg: pkg, Obj: ObjectKey(obj), Type: factTypeName(fact)}] = fact
}

// ImportObjectFact copies the stored fact of ptr's type about obj into
// *ptr and reports whether one was found.
func (s *FactSet) ImportObjectFact(obj types.Object, ptr Fact) bool {
	pkg, ok := factPkgPath(obj)
	if !ok {
		return false
	}
	f, ok := s.m[FactKey{Pkg: pkg, Obj: ObjectKey(obj), Type: factTypeName(ptr)}]
	if !ok {
		return false
	}
	pv, fv := reflect.ValueOf(ptr), reflect.ValueOf(f)
	if pv.Type() != fv.Type() {
		return false
	}
	pv.Elem().Set(fv.Elem())
	return true
}

// wireFact is the gob-transported triple. The Fact field rides as an
// interface value, so concrete types must be registered (RegisterFact).
type wireFact struct {
	Pkg  string
	Obj  string
	Fact Fact
}

// Encode serializes the set: the magic header, then one gob stream
// holding the fact count and the facts sorted by key — a canonical,
// deterministic byte form for the build cache.
func (s *FactSet) Encode() ([]byte, error) {
	keys := make([]FactKey, 0, len(s.m))
	for k := range s.m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.Pkg != b.Pkg {
			return a.Pkg < b.Pkg
		}
		if a.Obj != b.Obj {
			return a.Obj < b.Obj
		}
		return a.Type < b.Type
	})
	var buf bytes.Buffer
	buf.WriteString(VetxMagic)
	enc := gob.NewEncoder(&buf)
	if err := enc.Encode(len(keys)); err != nil {
		return nil, err
	}
	for _, k := range keys {
		if err := enc.Encode(wireFact{Pkg: k.Pkg, Obj: k.Obj, Fact: s.m[k]}); err != nil {
			return nil, fmt.Errorf("encoding fact %s.%s (%s): %w", k.Pkg, k.Obj, k.Type, err)
		}
	}
	return buf.Bytes(), nil
}

// Decode merges the facts encoded in data into the set. Any deviation
// from the wire format — missing header, truncated stream, undecodable
// gob — is an error: a facts file that cannot be read completely must
// not silently pass for empty.
func (s *FactSet) Decode(data []byte) error {
	rest, ok := bytes.CutPrefix(data, []byte(VetxMagic))
	if !ok {
		return fmt.Errorf("not a sopslint facts file (missing %q header; got %d bytes)", strings.TrimSpace(VetxMagic), len(data))
	}
	dec := gob.NewDecoder(bytes.NewReader(rest))
	var n int
	if err := dec.Decode(&n); err != nil {
		return fmt.Errorf("corrupt facts file: reading fact count: %w", err)
	}
	if n < 0 {
		return fmt.Errorf("corrupt facts file: negative fact count %d", n)
	}
	for i := 0; i < n; i++ {
		var w wireFact
		if err := dec.Decode(&w); err != nil {
			return fmt.Errorf("corrupt facts file: fact %d/%d: %w", i+1, n, err)
		}
		if w.Fact == nil {
			return fmt.Errorf("corrupt facts file: fact %d/%d is nil", i+1, n)
		}
		s.m[FactKey{Pkg: w.Pkg, Obj: w.Obj, Type: factTypeName(w.Fact)}] = w.Fact
	}
	return nil
}

package analysis

// This file is the summary half of the analysis layer: durable,
// object-keyed facts. A package's fact pass exports facts about the
// package's functions (a taint summary, an error-wrapping mask);
// analyzers of that package and of downstream packages import them at
// call sites, so one lookup serves a local callee and one across a
// package boundary.
//
// Facts travel one way: every package of a run shares one FactSet
// (load.Packages and load.Corpus hand it out), and the driver visits
// the packages in dependency order, so an import sees what a dependency
// exported moments ago. Identity is positional — (package path, object
// key, fact type) — not pointer-based, because an importer typechecked
// against export data sees different types.Objects from the ones the
// exporting package published facts on.

import (
	"go/types"
	"reflect"
)

// A Fact is one exported observation about a package-level function or
// method. Implementations must be pointers to structs. The AFact method
// is a marker only.
type Fact interface {
	AFact()
}

// factKey addresses one fact: the declaring package's import path, the
// object's stable key within it, and the fact's concrete type.
type factKey struct {
	pkg, obj string
	typ      reflect.Type
}

// ObjectKey returns the stable within-package key of a package-level
// object: "Name" for a function and "RecvType.Name" for a method (the
// pointer-ness of the receiver does not key — a type has one method set
// namespace).
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

// keyOf returns the key of the fact of f's type about obj; objects
// outside any package (builtins, the universe scope) carry no facts.
func keyOf(obj types.Object, f Fact) (factKey, bool) {
	if obj == nil || obj.Pkg() == nil {
		return factKey{}, false
	}
	return factKey{pkg: obj.Pkg().Path(), obj: ObjectKey(obj), typ: reflect.TypeOf(f)}, true
}

// A FactSet is the fact store one analysis run shares: facts exported by
// already-analyzed packages, keyed for import by downstream ones.
type FactSet struct {
	m map[factKey]Fact
}

// NewFactSet returns an empty fact store.
func NewFactSet() *FactSet {
	return &FactSet{m: map[factKey]Fact{}}
}

// ExportObjectFact stores fact about obj, replacing a previous fact of
// the same type.
func (s *FactSet) ExportObjectFact(obj types.Object, fact Fact) {
	if k, ok := keyOf(obj, fact); ok {
		s.m[k] = fact
	}
}

// ImportObjectFact copies the stored fact of ptr's type about obj into
// *ptr and reports whether one was found.
func (s *FactSet) ImportObjectFact(obj types.Object, ptr Fact) bool {
	k, ok := keyOf(obj, ptr)
	if !ok {
		return false
	}
	f, ok := s.m[k]
	if ok {
		reflect.ValueOf(ptr).Elem().Set(reflect.ValueOf(f).Elem())
	}
	return ok
}

package analysis

import (
	"fmt"
	"go/types"
	"reflect"
	"sort"
)

// Facts: typed values an analyzer attaches to objects while analyzing one
// package, visible to later analyses of packages that import it. They are
// the channel that turns single-package syntactic passes into
// whole-program checks — keycover learns which foreign types carry a
// complete AppendKey serialization, allocbudget learns which foreign
// functions are declared allocation-free — without ever re-analyzing a
// dependency.
//
// The design mirrors golang.org/x/tools/go/analysis: a Fact is a pointer
// to a struct implementing the marker method AFact, and facts are keyed by
// (object, concrete fact type). One driver run shares one in-process
// store, and the loader's shared importer preserves object identity
// across packages, so facts are never serialized.

// Fact is a value attached to an object by one analyzer and importable by
// later passes over importing packages. Implementations must be pointers
// to structs.
type Fact interface {
	// AFact marks the type as a fact; it is never called.
	AFact()
}

// objFactKey identifies one object fact: the object it decorates and the
// concrete fact type (one analyzer may attach several fact types to the
// same object).
type objFactKey struct {
	obj types.Object
	t   reflect.Type
}

// Facts is the store of object facts shared by every pass of one driver
// run. Passes run one at a time, so it needs no lock.
type Facts struct {
	obj map[objFactKey]Fact
}

// NewFacts returns an empty store.
func NewFacts() *Facts {
	return &Facts{obj: map[objFactKey]Fact{}}
}

// factType validates the fact's dynamic type (pointer to struct) and
// returns it.
func factType(fact Fact) reflect.Type {
	t := reflect.TypeOf(fact)
	if t == nil || t.Kind() != reflect.Pointer {
		panic(fmt.Sprintf("analysis: fact %T is not a pointer", fact))
	}
	return t
}

// setObject stores an object fact, replacing any previous fact of the same
// type on the same object.
func (f *Facts) setObject(obj types.Object, fact Fact) {
	f.obj[objFactKey{obj, factType(fact)}] = fact
}

// getObject copies the stored fact of *fact's type for obj into fact and
// reports whether one existed.
func (f *Facts) getObject(obj types.Object, fact Fact) bool {
	stored, ok := f.obj[objFactKey{obj, factType(fact)}]
	if !ok {
		return false
	}
	reflect.ValueOf(fact).Elem().Set(reflect.ValueOf(stored).Elem())
	return true
}

// ObjectFact is one exported object fact, for inspection and testing.
type ObjectFact struct {
	Object types.Object
	Fact   Fact
}

// ObjectFactsOf returns every object fact attached to objects of the given
// package, sorted by object position and fact type for determinism.
func (f *Facts) ObjectFactsOf(pkg *types.Package) []ObjectFact {
	var out []ObjectFact
	for k, v := range f.obj {
		if k.obj.Pkg() == pkg {
			out = append(out, ObjectFact{Object: k.obj, Fact: v})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if pi, pj := out[i].Object.Pos(), out[j].Object.Pos(); pi != pj {
			return pi < pj
		}
		return fmt.Sprintf("%T", out[i].Fact) < fmt.Sprintf("%T", out[j].Fact)
	})
	return out
}

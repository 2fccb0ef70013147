package artifact

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"aqverify/internal/build"
	"aqverify/internal/hashing"
	"aqverify/internal/itree"
	"aqverify/internal/sig"
)

// TestServingTreeHoldsNoSigner: the tree a server is handed reaches no
// owner state. Every value reachable from the *core.Tree of a built
// single tree, a built shard set, an applied product and an opened
// artifact is walked by reflection, unexported fields included; none
// may be a signer, the hasher that builds or the 1-D arrangement.
func TestServingTreeHoldsNoSigner(t *testing.T) {
	ctx := context.Background()
	spec := testSpec(t, 40, 3)
	single, err := build.Outsource(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	set, err := build.Outsource(ctx, spec, build.WithShards(2, 0))
	if err != nil {
		t.Fatal(err)
	}
	applied, err := build.Apply(ctx, single, build.Delete(0))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if _, err := Save(dir, set); err != nil {
		t.Fatal(err)
	}
	opened, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer opened.Close()

	for _, c := range []struct {
		name string
		res  *build.Result
	}{{"outsourced", single}, {"sharded", set}, {"applied", applied}, {"opened", opened.Result}} {
		for i, tr := range treesOf(t, c.res) {
			if found := ownerState(reflect.ValueOf(tr), "tree", map[visit]bool{}, nil); len(found) > 0 {
				t.Errorf("%s tree %d reaches owner state at %s", c.name, i, strings.Join(found, ", "))
			}
		}
	}
}

// ownerStateTypes are the owner's private values: a signer (any type
// that signs), the build hasher and the arrangement.
var ownerStateTypes = []reflect.Type{
	reflect.TypeOf((*sig.Signer)(nil)).Elem(),
	reflect.TypeOf((*hashing.Hasher)(nil)),
	reflect.TypeOf((*itree.Arrangement1D)(nil)),
}

type visit struct {
	t reflect.Type
	p uintptr
}

// ownerState appends to found the path of every value reachable from v
// whose type is owner state.
func ownerState(v reflect.Value, path string, seen map[visit]bool, found []string) []string {
	for _, ot := range ownerStateTypes {
		if v.Type() == ot || (ot.Kind() == reflect.Interface && v.Type().Implements(ot)) {
			return append(found, fmt.Sprintf("%s (%s)", path, v.Type()))
		}
	}
	switch v.Kind() {
	case reflect.Pointer:
		if v.IsNil() || seen[visit{v.Type(), v.Pointer()}] {
			return found
		}
		seen[visit{v.Type(), v.Pointer()}] = true
		return ownerState(v.Elem(), path, seen, found)
	case reflect.Interface:
		if v.IsNil() {
			return found
		}
		return ownerState(v.Elem(), path, seen, found)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			found = ownerState(v.Field(i), path+"."+v.Type().Field(i).Name, seen, found)
		}
	case reflect.Slice, reflect.Array:
		if k := v.Type().Elem().Kind(); k <= reflect.Complex128 || k == reflect.String {
			return found // no element of a basic kind holds anything
		}
		for i := 0; i < v.Len(); i++ {
			found = ownerState(v.Index(i), fmt.Sprintf("%s[%d]", path, i), seen, found)
		}
	case reflect.Map:
		for it := v.MapRange(); it.Next(); {
			found = ownerState(it.Value(), fmt.Sprintf("%s[%v]", path, it.Key()), seen, found)
		}
	}
	return found
}

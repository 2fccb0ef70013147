package core_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"aqverify/internal/build"
	"aqverify/internal/core"
	"aqverify/internal/funcs"
	"aqverify/internal/geometry"
	"aqverify/internal/query"
	"aqverify/internal/verify"
	"aqverify/internal/wire"
)

// TestProcessIntoOverwritesTheScratch: ProcessInto leaves nothing of
// what its answer held before. Walked into one answer right after any
// other query — another kind, a window larger or smaller (past the 64
// records a server's stack scratch holds, or empty), the other signing
// mode, another tree — an answer deep-equals, and encodes byte for byte
// as, the same query walked into a fresh answer by Process. The trees
// are 1-D and 2-D, built and loaded from an artifact, in both modes.
func TestProcessIntoOverwritesTheScratch(t *testing.T) {
	type item struct {
		name string
		tree *core.Tree
		q    query.Query
	}
	var items []item
	add := func(name string, tree *core.Tree, tpl funcs.Template, xs []geometry.Point) {
		for _, x := range xs {
			ref, err := query.Exec(tree.Table(), tpl, query.NewTopK(x, tree.NumRecords()))
			if err != nil {
				t.Fatal(err)
			}
			mid := ref.Scores[len(ref.Scores)/2]
			for _, q := range append(walkQueries(x, ref.Scores), query.NewTopK(x, 70), query.NewKNN(x, 65, mid)) {
				items = append(items, item{name, tree, q})
			}
		}
	}
	line, plane := funcs.AffineLine(0, 1), funcs.ScalarProduct(2)
	dom1 := geometry.MustBox([]float64{-1}, []float64{1})
	dom2 := geometry.MustBox([]float64{-1, -1}, []float64{1, 1})
	for _, mode := range []verify.Mode{verify.OneSignature, verify.MultiSignature} {
		one := outsourceWalk(t, build.Spec{Table: quarterTable(t, 90, 2, 3), Template: line, Domain: dom1, Signer: walkSigner},
			build.WithMode(mode))
		two := outsourceWalk(t, build.Spec{Table: quarterTable(t, 12, 2, 4), Template: plane, Domain: dom2, Signer: walkSigner},
			build.WithMode(mode))
		xs1 := []geometry.Point{{-1}, {0.125}, {1}}
		xs2 := []geometry.Point{{-1, -1}, {0.5, -0.25}, {1, 1}}
		add(fmt.Sprintf("1D/%v/built", mode), one.Tree, line, xs1)
		add(fmt.Sprintf("1D/%v/loaded", mode), reopen(t, one), line, xs1)
		add(fmt.Sprintf("2D/%v/built", mode), two.Tree, plane, xs2)
		add(fmt.Sprintf("2D/%v/loaded", mode), reopen(t, two), plane, xs2)
	}
	rng := rand.New(rand.NewSource(35))
	for pass := 0; pass < 3; pass++ {
		var a verify.Answer
		for _, it := range items {
			if err := it.tree.ProcessInto(&a, it.q, nil); err != nil {
				t.Fatalf("%s %+v: %v", it.name, it.q, err)
			}
			fresh, err := it.tree.Process(it.q, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(&a, fresh) {
				t.Fatalf("%s %+v: the reused answer differs from a fresh one", it.name, it.q)
			}
			if !bytes.Equal(wire.EncodeIFMH(&a), wire.EncodeIFMH(fresh)) {
				t.Fatalf("%s %+v: the reused answer encodes differently", it.name, it.q)
			}
		}
		rng.Shuffle(len(items), func(i, j int) { items[i], items[j] = items[j], items[i] })
	}
}

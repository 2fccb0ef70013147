package build

import (
	"cmp"
	"context"
	"math"
	"math/big"
	"math/rand"
	"slices"
	"testing"

	"aqverify/internal/core"
	"aqverify/internal/funcs"
	"aqverify/internal/geometry"
	"aqverify/internal/itree"
	"aqverify/internal/query"
	"aqverify/internal/record"
	"aqverify/internal/sig"
	"aqverify/internal/verify"
	"aqverify/internal/workload"
)

// exactRank is the owner's order at the float x, in big.Rat: the sign
// of (f_i(x), i) − (f_j(x), j).
func exactRank(fs []funcs.Linear, i, j int, x float64) int {
	w := new(big.Rat).SetFloat64(x)
	if c := fs[i].EvalRat(w).Cmp(fs[j].EvalRat(w)); c != 0 {
		return c
	}
	return cmp.Compare(i, j)
}

// leafPositions returns pos, where pos[i] is function i's position in
// subdomain id's list.
func leafPositions(t testing.TB, snap core.Snapshot, id int) []int {
	t.Helper()
	n := snap.Table.Len()
	got, err := snap.Subs[id].List.Window(nil, 0, n)
	if err != nil {
		t.Fatal(err)
	}
	pos := make([]int, n)
	for p, rec := range got[1 : n+1] {
		pos[rec] = p
	}
	return pos
}

// probe is one float at which the order of the pair (i, j) in the leaf
// Search finds is checked.
type probe struct {
	x    float64
	i, j int
	sub  int
}

// crossingProbes returns, for every pair of fs whose order changes in
// [lo, hi], the floats of [lo, hi] from one ulp below to one ulp above
// the lines' exact crossing, each with the subdomain Search finds there.
func crossingProbes(fs []funcs.Linear, tree *itree.Tree, lo, hi float64, ulps int) []probe {
	var out []probe
	rank := func(i, j int, x float64) bool {
		c := funcs.CmpAt(fs[i], fs[j], x)
		return c < 0 || c == 0 && i < j
	}
	for i := range fs {
		for j := i + 1; j < len(fs); j++ {
			if rank(i, j, lo) == rank(i, j, hi) {
				continue
			}
			num := new(big.Rat).Sub(new(big.Rat).SetFloat64(fs[j].Bias), new(big.Rat).SetFloat64(fs[i].Bias))
			r := num.Quo(num, new(big.Rat).Sub(new(big.Rat).SetFloat64(fs[i].Coef[0]), new(big.Rat).SetFloat64(fs[j].Coef[0])))
			below, _ := r.Float64()
			above := below
			switch c := new(big.Rat).SetFloat64(below).Cmp(r); {
			case c < 0:
				above = math.Nextafter(below, math.Inf(1))
			case c > 0:
				below = math.Nextafter(above, math.Inf(-1))
			}
			for k := 0; k < ulps; k++ {
				below, above = math.Nextafter(below, math.Inf(-1)), math.Nextafter(above, math.Inf(1))
			}
			for x := max(below, lo); x <= min(above, hi); x = math.Nextafter(x, math.Inf(1)) {
				out = append(out, probe{x: x, i: i, j: j, sub: tree.Search(geometry.Point{x}, nil, nil).ID})
			}
		}
	}
	slices.SortFunc(out, func(a, b probe) int { return a.sub - b.sub })
	return out
}

// TestEveryFloatNearACrossingIsOrdered probes the leaves where the
// 1-D owner's boundaries lie, on the benchmark's table shape (n = 2 000
// lines, seed 1) in four distributions: at every float from one ulp
// below to one ulp above each crossing, the leaf Search finds must order
// the pair exactly (exact score, ties by index). Where the pair's
// rounded scores agree with that order, a bottom-k or top-k (k ≤ 64)
// whose window boundary falls between the two is answered, verified,
// and compared with query.Exec: every such answer must verify and
// equal the brute force.
func TestEveryFloatNearACrossingIsOrdered(t *testing.T) {
	if testing.Short() {
		t.Skip("four n = 2000 builds probed pair by pair")
	}
	for _, dist := range []workload.Distribution{workload.Gaussian, workload.Uniform, workload.AntiCorrelated, workload.Correlated} {
		spec := testSpec(t, 2000, 1, dist)
		res, err := Outsource(context.Background(), spec, WithMode(verify.MultiSignature))
		if err != nil {
			t.Fatal(err)
		}
		snap := res.Tree.Snapshot()
		fs, err := spec.Template.InterpretTable(spec.Table)
		if err != nil {
			t.Fatal(err)
		}
		n := len(fs)
		probes := crossingProbes(fs, snap.ITree, spec.Domain.Lo[0], spec.Domain.Hi[0], 1)
		backward, queries := 0, 0
		var pos []int
		for k, p := range probes {
			if k == 0 || probes[k-1].sub != p.sub {
				pos = leafPositions(t, snap, p.sub)
			}
			want := exactRank(fs, p.i, p.j, p.x)
			if (pos[p.i] < pos[p.j]) != (want < 0) {
				backward++
				continue
			}
			xp := geometry.Point{p.x}
			si, sj := fs[p.i].Eval(xp), fs[p.j].Eval(xp)
			if si == sj || (si < sj) != (want < 0) {
				continue // the rounded scores disagree with the exact order
			}
			a, b := min(pos[p.i], pos[p.j]), max(pos[p.i], pos[p.j])
			var qs []query.Query
			if b < 64 {
				qs = append(qs, query.NewBottomK(xp, a+1))
			}
			if n-a <= 64 {
				qs = append(qs, query.NewTopK(xp, n-b))
			}
			for _, q := range qs {
				queries++
				if err := verifiedIsExec(res, spec, q); err != "" {
					t.Errorf("%s: %v at x = %v (pair %d, %d): %s", dist, q.Kind, p.x, p.i, p.j, err)
				}
			}
		}
		t.Logf("%s: %d probes, %d backward, %d queries", dist, len(probes), backward, queries)
		if backward != 0 {
			t.Errorf("%s: %d of %d probed floats land in a leaf that orders their pair backwards", dist, backward, len(probes))
		}
	}
}

// verifiedIsExec answers q on res's tree, verifies the answer and
// compares its records with query.Exec's, returning what went wrong.
func verifiedIsExec(res *Result, spec Spec, q query.Query) string {
	ans, err := res.Tree.Process(q, nil)
	if err != nil {
		return err.Error()
	}
	if err := verify.Verify(res.Public, q, ans.Records, &ans.VO, nil); err != nil {
		return "honest answer rejected: " + err.Error()
	}
	want, err := query.Exec(spec.Table, spec.Template, q)
	if err != nil {
		return err.Error()
	}
	if !slices.EqualFunc(ans.Records, want.Records, func(a, b record.Record) bool { return a.ID == b.ID }) {
		return "verified answer differs from query.Exec"
	}
	return ""
}

// everyFloatOrdered checks every leaf of a univariate product: at its
// first and at its last float, its list is the exact sort and Search
// finds it. Each pair changes order at most once along the float line,
// so a list in the exact order at both ends of a leaf is the exact order
// at every float of it.
func everyFloatOrdered(t *testing.T, res *Result) {
	t.Helper()
	for k, tr := range treesOf(t, res) {
		snap := tr.Snapshot()
		fs, err := snap.Template.InterpretTable(snap.Table)
		if err != nil {
			t.Fatal(err)
		}
		n := len(fs)
		for id, si := range snap.Subs {
			iv := si.Sub.Region.(*itree.Interval1D)
			last := iv.Hi
			if iv.HiStrict {
				last = math.Nextafter(iv.Hi, math.Inf(-1))
			}
			got, err := si.List.Window(nil, 0, n)
			if err != nil {
				t.Fatal(err)
			}
			for _, x := range []float64{iv.Lo, last} {
				if want := itree.SortAtExact(fs, x); !slices.Equal(got[1:n+1], want) {
					t.Fatalf("tree %d subdomain %d [%v, %v]: the list reads %v, the exact sort at %v is %v", k, id, iv.Lo, iv.Hi, got[1:n+1], x, want)
				}
				if sub := snap.ITree.Search(geometry.Point{x}, nil, nil); sub.ID != id {
					t.Fatalf("tree %d: %v lies in subdomain %d, Search finds %d", k, x, id, sub.ID)
				}
			}
		}
	}
}

// pencil returns lines through (x0, 0) of the given slopes, their biases
// −a·x0 rounded, so the lines are only nearly concurrent when x0·a is
// not a float.
func pencil(x0 float64, firstID uint64, slopes ...float64) []record.Record {
	out := make([]record.Record, len(slopes))
	for k, a := range slopes {
		out[k] = record.Record{ID: firstID + uint64(k), Attrs: []float64{a, float64(-a * x0)}}
	}
	return out
}

// TestNearConcurrentPencilsOutsource: lines through one point whose
// coordinate makes their biases inexact cross at distinct points a few
// ulps apart, in an order no rounded difference root reproduces. Ten
// lines through x0 = 0.26163459833063035 alone, and five through
// x0 = 0.3 among a 40-line table, must outsource in both modes, alone
// and in shards, with every float of every leaf sorted as its list.
func TestNearConcurrentPencilsOutsource(t *testing.T) {
	base := testSpec(t, 40, 13, workload.Gaussian)
	var slopes []float64
	for a := -4.5; a <= 4.5; a++ {
		slopes = append(slopes, a)
	}
	alone, err := record.NewTable(base.Table.Schema, pencil(0.26163459833063035, 1, slopes...))
	if err != nil {
		t.Fatal(err)
	}
	among, err := record.NewTable(base.Table.Schema,
		append(slices.Clone(base.Table.Records), pencil(0.3, 1000, -3, -1.25, 0.75, 2, 5)...))
	if err != nil {
		t.Fatal(err)
	}
	for name, tbl := range map[string]record.Table{"ten through 0.2616…": alone, "five through 0.3 among 40": among} {
		spec := base
		spec.Table = tbl
		for _, mode := range []verify.Mode{verify.OneSignature, verify.MultiSignature} {
			for _, opts := range [][]Option{nil, {WithShards(3, 0)}} {
				res, err := Outsource(context.Background(), spec, append(opts, WithMode(mode))...)
				if err != nil {
					t.Fatalf("%s, %v, %d option(s): %v", name, mode, len(opts), err)
				}
				everyFloatOrdered(t, res)
			}
		}
	}
}

// FuzzOwner1D builds small adversarial univariate tables — a pencil
// through the non-dyadic point x0, lines through each domain edge and
// one ulp either side of it with slopes 2^±k, and lines of magnitude
// 10^mag — and asserts two things: the owner's build succeeds, and the
// leaf at every float within 4 ulps of each crossing orders that pair
// exactly.
func FuzzOwner1D(f *testing.F) {
	f.Add(0.26163459833063035, 0.1375302344871222, 1.2410436384351, uint8(2), int16(0), int64(1))
	f.Add(0.3, -1.0, 2.0, uint8(10), int16(0), int64(2))
	f.Add(1.0/3, 1.0, 1.0, uint8(52), int16(-300), int64(3))
	f.Add(0.1, 1e-300, 1e-290, uint8(1), int16(300), int64(4))
	f.Add(-2.0/7, -0.75, 2.25, uint8(30), int16(-150), int64(5))
	signer, err := sig.NewSigner(sig.Ed25519, sig.Options{Rand: sig.DeterministicRand(7)})
	if err != nil {
		f.Fatal(err)
	}
	schema := record.Schema{Name: "lines", Columns: []record.Column{{Name: "slope"}, {Name: "intercept"}}}
	f.Fuzz(func(t *testing.T, x0, lo, width float64, k uint8, mag int16, seed int64) {
		hi := lo + width
		dom, err := geometry.NewBox([]float64{lo}, []float64{hi})
		if err != nil || math.IsInf(x0, 0) || math.IsNaN(x0) || mag < -300 || mag > 300 {
			return
		}
		rng := rand.New(rand.NewSource(seed))
		scale, e := math.Pow(10, float64(mag)), int(k%64)
		var recs []record.Record
		add := func(slope, bias float64) {
			if !math.IsInf(slope, 0) && !math.IsInf(bias, 0) && !math.IsNaN(bias) {
				recs = append(recs, record.Record{ID: uint64(len(recs) + 1), Attrs: []float64{slope, bias}})
			}
		}
		for _, a := range []float64{-3, -1.25, 0.5, 1, 2.75} {
			add(a*scale, float64(-a*x0)*scale)
		}
		for _, edge := range []float64{lo, hi} {
			for _, t0 := range []float64{math.Nextafter(edge, math.Inf(-1)), edge, math.Nextafter(edge, math.Inf(1))} {
				s := math.Ldexp(1, e-rng.Intn(2*e+1))
				add(s, float64(-s*t0))
			}
		}
		for i := 0; i < 3; i++ {
			add(rng.NormFloat64()*scale, rng.NormFloat64()*scale)
		}
		tbl, err := record.NewTable(schema, recs)
		if err != nil {
			t.Fatal(err)
		}
		spec := Spec{Table: tbl, Template: funcs.AffineLine(0, 1), Domain: dom, Signer: signer}
		res, err := Outsource(context.Background(), spec, WithMode(verify.OneSignature))
		if err != nil {
			t.Fatalf("%d lines over [%v, %v]: %v", len(recs), lo, hi, err)
		}
		snap := res.Tree.Snapshot()
		fs, err := spec.Template.InterpretTable(tbl)
		if err != nil {
			t.Fatal(err)
		}
		probes := crossingProbes(fs, snap.ITree, lo, hi, 4)
		var pos []int
		for i, p := range probes {
			if i == 0 || probes[i-1].sub != p.sub {
				pos = leafPositions(t, snap, p.sub)
			}
			if (pos[p.i] < pos[p.j]) != (exactRank(fs, p.i, p.j, p.x) < 0) {
				t.Fatalf("at %v the leaf %d orders lines %d %v and %d %v backwards", p.x, p.sub, p.i, recs[p.i].Attrs, p.j, recs[p.j].Attrs)
			}
		}
	})
}

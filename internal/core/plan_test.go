package core

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"aqverify/internal/funcs"
	"aqverify/internal/geometry"
	"aqverify/internal/record"
)

// deltaOf applies a batch to tbl under the canonical rule build.Apply
// uses — deletes compact the survivors in order, updates replace in
// place, inserts append — and returns the bookkeeping ApplyCtx takes.
func deltaOf(t testing.TB, tbl record.Table, del []int, upd map[int]record.Record, ins ...record.Record) Delta {
	t.Helper()
	gone := map[int]bool{}
	for _, i := range del {
		gone[i] = true
	}
	d := Delta{CleanRemap: make([]int, tbl.Len())}
	var recs []record.Record
	for i, r := range tbl.Records {
		d.CleanRemap[i] = -1
		if gone[i] {
			continue
		}
		if u, ok := upd[i]; ok {
			r = u
		} else {
			d.CleanRemap[i] = len(recs)
		}
		recs = append(recs, r)
		d.DirtyNew = append(d.DirtyNew, d.CleanRemap[i] < 0)
	}
	for _, r := range ins {
		recs = append(recs, r)
		d.DirtyNew = append(d.DirtyNew, true)
	}
	var err error
	if d.Table, err = record.NewTable(tbl.Schema, recs); err != nil {
		t.Fatal(err)
	}
	return d
}

// TestApplyPlanIsTheRebuildPlan: the sweep plan is owner state — no
// snapshot, artifact or fingerprint carries it — yet the next ApplyCtx
// replays it, so apply≡rebuild is pinned on the plan itself: the plan
// ApplyCtx derives deep-equals the one a full BuildCtx of the mutated
// table computes, for insert, delete, update and mixed batches, at
// workers 1 and 8, and again one apply further down the chain.
func TestApplyPlanIsTheRebuildPlan(t *testing.T) {
	ctx := context.Background()
	tbl := lineTable(t, 60, 11)
	line := func(id uint64, slope, icpt float64) record.Record {
		return record.Record{ID: id, Attrs: []float64{slope, icpt}}
	}
	type batch struct {
		del []int
		upd map[int]record.Record
		ins []record.Record
	}
	batches := map[string]batch{
		"insert": {ins: []record.Record{line(1001, 1.5, -0.25)}},
		"delete": {del: []int{7}},
		"update": {upd: map[int]record.Record{3: line(tbl.Records[3].ID, -0.8, 1.1)}},
		"mixed": {
			del: []int{0, tbl.Len() - 1},
			upd: map[int]record.Record{11: line(tbl.Records[11].ID, 2.5, -1)},
			ins: []record.Record{line(1002, 0.6, 0.4), line(1003, -1.2, 0.9)},
		},
	}
	for _, workers := range []int{1, 8} {
		p := Params{
			Mode:     OneSignature,
			Signer:   testSigner,
			Domain:   geometry.MustBox([]float64{-1}, []float64{1}),
			Template: funcs.AffineLine(0, 1),
			Seed:     42,
			Workers:  workers,
		}
		prev, err := BuildCtx(ctx, tbl, p)
		if err != nil {
			t.Fatal(err)
		}
		if prev.arr == nil {
			t.Fatal("a univariate build kept no arrangement: ApplyCtx would rebuild, not replay")
		}
		for name, b := range batches {
			t.Run(fmt.Sprintf("workers=%d/%s", workers, name), func(t *testing.T) {
				cur, d := prev, deltaOf(t, tbl, b.del, b.upd, b.ins...)
				for epoch := uint64(2); epoch <= 3; epoch++ {
					applied, err := cur.ApplyCtx(ctx, d, epoch)
					if err != nil {
						t.Fatal(err)
					}
					full := p
					full.Epoch = epoch
					rebuilt, err := BuildCtx(ctx, d.Table, full)
					if err != nil {
						t.Fatal(err)
					}
					if applied.plan.TotalSwaps() == 0 || len(applied.plan.Swaps) != len(applied.subs)-1 {
						t.Fatalf("epoch %d: a plan of %d swaps over %d boundaries for %d subdomains; want a sweep to compare",
							epoch, applied.plan.TotalSwaps(), len(applied.plan.Swaps), len(applied.subs))
					}
					if !reflect.DeepEqual(applied.plan, rebuilt.plan) {
						t.Fatalf("epoch %d: ApplyCtx's plan differs from a full BuildCtx's", epoch)
					}
					// One more apply replays the plan just derived.
					cur, d = applied, deltaOf(t, d.Table, []int{1}, nil, line(2000+epoch, 0.3, -0.7))
				}
			})
		}
	}
}

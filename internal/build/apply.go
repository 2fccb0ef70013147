package build

import (
	"context"
	"fmt"

	"aqverify/internal/core"
	"aqverify/internal/pool"
	"aqverify/internal/record"
	"aqverify/internal/shard"
)

// mutKind discriminates the mutation operations.
type mutKind int

const (
	mutNone mutKind = iota // the zero Mutation, rejected loudly
	mutInsert
	mutDelete
	mutUpdate
)

// Mutation is one record-level change of an outsourced table. Deletes
// and updates index the table of the epoch the batch applies to — the
// one the previous Result authenticates — and the whole batch is
// applied as a set against that snapshot, so indexes never shift
// mid-batch. Construct mutations with Insert, Delete and Update; the
// zero Mutation is invalid.
type Mutation struct {
	kind  mutKind
	index int
	rec   record.Record
}

// Insert appends a record to the table. Inserted records land after
// every surviving record, in batch order.
func Insert(rec record.Record) Mutation { return Mutation{kind: mutInsert, rec: rec} }

// Delete removes the record at index i of the previous epoch's table.
// Surviving records keep their relative order (the table compacts).
func Delete(i int) Mutation { return Mutation{kind: mutDelete, index: i} }

// Update replaces the record at index i of the previous epoch's table
// in place: the row keeps its (compacted) position, but its digest,
// utility function and intersections are all recomputed.
func Update(i int, rec record.Record) Mutation {
	return Mutation{kind: mutUpdate, index: i, rec: rec}
}

// String names the mutation for error and demo output.
func (m Mutation) String() string {
	switch m.kind {
	case mutInsert:
		return fmt.Sprintf("insert(id=%d)", m.rec.ID)
	case mutDelete:
		return fmt.Sprintf("delete(%d)", m.index)
	case mutUpdate:
		return fmt.Sprintf("update(%d, id=%d)", m.index, m.rec.ID)
	default:
		return "invalid"
	}
}

// Apply re-outsources a previously built product under a batch of
// record mutations, returning a new Result one epoch above the input.
// The previous Result is left untouched — a server keeps answering
// from its snapshot until the new epoch is swapped in. It applies to
// the owners a Result from Outsource or Apply holds; a Result
// reconstructed from an artifact serves only and is refused.
//
// For every product over a univariate template — sharded or not,
// whatever options built it — the work is incremental: only the pair
// buckets, sweep boundaries, and signatures the changed records touch
// are recomputed (see core.Owner.ApplyCtx for the stage-by-stage
// contract), and the stages report to the WithProgress callback of the
// original Outsource. Multivariate products fall back to a full rebuild
// under the same API and epoch discipline. Either way the result is
// byte-identical to a full Outsource of the mutated table at the same
// epoch, at any worker count.
//
// Sharded products apply the batch to every shard concurrently; each
// shard keeps its own sub-domain, derived seed and retained
// arrangement, and all shards land on the same new epoch, so a set
// never publishes a torn mix of epochs.
func Apply(ctx context.Context, prev *Result, muts ...Mutation) (*Result, error) {
	if prev == nil {
		return nil, fmt.Errorf("build: Apply needs the previous Result")
	}
	if len(muts) == 0 {
		return nil, fmt.Errorf("build: empty mutation batch")
	}
	owners := prev.owners
	if len(owners) == 0 {
		return nil, fmt.Errorf("build: result is serve-only (no owner retained; e.g. reconstructed from an artifact); apply mutations on the owner's build and publish a new epoch")
	}
	epoch := owners[0].Epoch()
	for i, o := range owners {
		if o.Epoch() != epoch {
			return nil, fmt.Errorf("build: shard %d is at epoch %d but shard 0 is at %d; refusing to mutate a torn set", i, o.Epoch(), epoch)
		}
	}
	d, err := mutate(owners[0].Table(), muts)
	if err != nil {
		return nil, err
	}
	next := &Result{Plan: prev.Plan, owners: make([]*core.Owner, len(owners))}
	errs := make([]error, len(owners))
	runErr := pool.RunCtx(ctx, len(owners), len(owners), func(_, i int) {
		applied, err := owners[i].ApplyCtx(ctx, d, epoch+1)
		if err != nil && prev.Set != nil {
			err = fmt.Errorf("shard %d: %w", i, err)
		}
		next.owners[i], errs[i] = applied, err
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	if runErr != nil {
		return nil, runErr
	}
	next.Public = next.owners[0].Public()
	if prev.Set == nil {
		next.Tree = next.owners[0].Tree
		return next, nil
	}
	next.Set = &shard.Set{Plan: prev.Set.Plan, Trees: make([]*core.Tree, len(owners))}
	for i, o := range next.owners {
		next.Set.Trees[i] = o.Tree
	}
	return next, nil
}

// mutate applies a mutation batch to a table snapshot and returns the
// core-level delta: the mutated table plus the clean-survivor remap and
// dirty mask the incremental stages key off. The batch is validated as
// a set — out-of-range indexes, duplicate targets, and conflicting
// delete/update pairs are errors, never last-writer-wins.
func mutate(tbl record.Table, muts []Mutation) (core.Delta, error) {
	n := tbl.Len()
	deletes := make(map[int]bool)
	updates := make(map[int]record.Record)
	var inserts []record.Record
	for mi, m := range muts {
		switch m.kind {
		case mutInsert:
			inserts = append(inserts, m.rec)
		case mutDelete, mutUpdate:
			if m.index < 0 || m.index >= n {
				return core.Delta{}, fmt.Errorf("build: mutation %d (%v): index outside the %d-record table", mi, m, n)
			}
			if deletes[m.index] {
				return core.Delta{}, fmt.Errorf("build: mutation %d (%v): record %d already deleted in this batch", mi, m, m.index)
			}
			if _, ok := updates[m.index]; ok {
				return core.Delta{}, fmt.Errorf("build: mutation %d (%v): record %d already updated in this batch", mi, m, m.index)
			}
			if m.kind == mutDelete {
				deletes[m.index] = true
			} else {
				updates[m.index] = m.rec
			}
		default:
			return core.Delta{}, fmt.Errorf("build: mutation %d is the invalid zero Mutation", mi)
		}
	}

	recs := make([]record.Record, 0, n-len(deletes)+len(inserts))
	remap := make([]int, n)
	dirty := make([]bool, 0, cap(recs))
	for i, r := range tbl.Records {
		if deletes[i] {
			remap[i] = -1
			continue
		}
		if nr, ok := updates[i]; ok {
			// The row keeps its compacted position but is dirty; its
			// old index is dead in the remap (old pairs die with it).
			remap[i] = -1
			recs = append(recs, nr)
			dirty = append(dirty, true)
			continue
		}
		remap[i] = len(recs)
		recs = append(recs, r)
		dirty = append(dirty, false)
	}
	recs = append(recs, inserts...)
	for range inserts {
		dirty = append(dirty, true)
	}
	nt, err := record.NewTable(tbl.Schema, recs)
	if err != nil {
		return core.Delta{}, fmt.Errorf("build: mutated table: %w", err)
	}
	return core.Delta{Table: nt, CleanRemap: remap, DirtyNew: dirty}, nil
}

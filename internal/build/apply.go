package build

import (
	"context"
	"fmt"

	"aqverify/internal/record"
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
// in place: the row keeps its (compacted) position.
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
// the Spec and options a Result from Outsource or Apply keeps; a Result
// reconstructed from an artifact serves only and is refused.
//
// The paper has no update algorithm: a new epoch is its four
// construction steps run again on the mutated table, and every
// subdomain's list holds every record, so any real mutation changes
// every list and every signature. Apply is therefore Outsource's own
// build of the mutated table under the options the original Outsource
// was given — a sharded product keeps its plan, never re-planned — and
// its stages report to that call's WithProgress callback. The result is
// byte-identical to a full Outsource of the mutated table at the same
// epoch (and, for a set, under WithPlan of the same plan), at any
// worker count; every shard lands on the one new epoch, so a set never
// publishes a torn mix of epochs.
func Apply(ctx context.Context, prev *Result, muts ...Mutation) (*Result, error) {
	if prev == nil {
		return nil, fmt.Errorf("build: Apply needs the previous Result")
	}
	if len(muts) == 0 {
		return nil, fmt.Errorf("build: empty mutation batch")
	}
	if prev.spec.Signer == nil {
		return nil, fmt.Errorf("build: result is serve-only (no owner retained; e.g. reconstructed from an artifact); apply mutations on the owner's build and publish a new epoch")
	}
	spec, o := prev.spec, prev.opts
	tbl, err := mutate(spec.Table, muts)
	if err != nil {
		return nil, err
	}
	spec.Table = tbl
	o.epoch = prev.Public.Epoch + 1
	return outsource(ctx, spec, o)
}

// mutate applies a mutation batch to a table snapshot and returns the
// mutated table: deletes compact the survivors preserving their order,
// updates replace in place, inserts append in batch order. The batch is
// validated as a set — out-of-range indexes, duplicate targets, and
// conflicting delete/update pairs are errors, never last-writer-wins.
func mutate(tbl record.Table, muts []Mutation) (record.Table, error) {
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
				return record.Table{}, fmt.Errorf("build: mutation %d (%v): index outside the %d-record table", mi, m, n)
			}
			if deletes[m.index] {
				return record.Table{}, fmt.Errorf("build: mutation %d (%v): record %d already deleted in this batch", mi, m, m.index)
			}
			if _, ok := updates[m.index]; ok {
				return record.Table{}, fmt.Errorf("build: mutation %d (%v): record %d already updated in this batch", mi, m, m.index)
			}
			if m.kind == mutDelete {
				deletes[m.index] = true
			} else {
				updates[m.index] = m.rec
			}
		default:
			return record.Table{}, fmt.Errorf("build: mutation %d is the invalid zero Mutation", mi)
		}
	}

	recs := make([]record.Record, 0, n-len(deletes)+len(inserts))
	for i, r := range tbl.Records {
		if deletes[i] {
			continue
		}
		if nr, ok := updates[i]; ok {
			r = nr
		}
		recs = append(recs, r)
	}
	nt, err := record.NewTable(tbl.Schema, append(recs, inserts...))
	if err != nil {
		return record.Table{}, fmt.Errorf("build: mutated table: %w", err)
	}
	return nt, nil
}

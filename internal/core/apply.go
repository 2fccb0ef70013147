package core

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"

	"aqverify/internal/hashing"
	"aqverify/internal/itree"
	"aqverify/internal/record"
)

// Delta is a table mutation in digested form: the mutated table plus
// the index bookkeeping relating it to the previous table. The build
// plane derives it from a build.Mutation batch under the canonical
// rule — deletes compact the survivors preserving their order, updates
// replace in place, inserts append at the end — which keeps the
// survivor remap monotone, the property the incremental stages rely
// on.
type Delta struct {
	// Table is the mutated table.
	Table record.Table
	// CleanRemap maps each previous record index to its new index, or
	// -1 when the record was deleted or updated. An updated record is
	// not "clean": its digest, function and pairs all change even
	// though its row survives.
	CleanRemap []int
	// DirtyNew marks each new index whose record is inserted or
	// updated — exactly the complement of CleanRemap's image.
	DirtyNew []bool
}

// dirtyCount returns the number of dirty new records.
func (d Delta) dirtyCount() int {
	n := 0
	for _, b := range d.DirtyNew {
		if b {
			n++
		}
	}
	return n
}

// validate checks the delta's bookkeeping against the previous table.
func (d Delta) validate(prevLen int) error {
	if d.Table.Len() == 0 {
		return fmt.Errorf("core: a mutation cannot empty the table")
	}
	if len(d.CleanRemap) != prevLen {
		return fmt.Errorf("core: remap has %d entries for a %d-record table", len(d.CleanRemap), prevLen)
	}
	if len(d.DirtyNew) != d.Table.Len() {
		return fmt.Errorf("core: dirty mask has %d entries for a %d-record table", len(d.DirtyNew), d.Table.Len())
	}
	last := -1
	clean := 0
	for i, ni := range d.CleanRemap {
		if ni < 0 {
			continue
		}
		if ni >= d.Table.Len() {
			return fmt.Errorf("core: remap[%d] = %d outside the new table", i, ni)
		}
		if ni <= last {
			return fmt.Errorf("core: remap is not monotone at %d", i)
		}
		if d.DirtyNew[ni] {
			return fmt.Errorf("core: new index %d is both clean and dirty", ni)
		}
		last = ni
		clean++
	}
	if clean+d.dirtyCount() != d.Table.Len() {
		return fmt.Errorf("core: %d clean + %d dirty records != %d", clean, d.dirtyCount(), d.Table.Len())
	}
	return nil
}

// ApplyCtx incrementally re-outsources the tree under a table
// mutation, returning a new tree at the given epoch; the receiver is
// left untouched, so a server can keep answering from its snapshot
// while the next epoch builds. The result is byte-identical to a full
// BuildCtx of the mutated table under the retained build parameters:
// the I-tree shape is a pure function of the arrangement, and from the
// arrangement onward the two run the same code (finish1D), so there is
// one pipeline to keep right, not two that must meet
// (TestApplyEquivalence still holds them to the same bytes). The
// retained Params.Progress callback observes the stages.
//
// The localized work, for every univariate tree built by this process:
// record digests are copied for clean rows, pair enumeration visits
// only pairs touching dirty rows (O(b·n) instead of O(n²)), those pairs
// are merged into the retained arrangement instead of re-sorting it,
// and the sweep plan replays clean boundaries, re-sorting only dirty
// ones. The per-subdomain FMH lists, the hash propagation and (in
// multi-signature mode) the signatures are rebuilt in full — every
// subdomain's function list contains every record, so any real
// mutation invalidates all of them; there is no sublinear form to
// exploit. Signatures whose signed digest is unchanged are reused
// rather than re-signed.
//
// Multivariate trees have no arrangement to maintain; for those
// ApplyCtx is a full rebuild under the same API — still correct, just
// not localized. Serve-only trees (FromSnapshot) are refused.
func (t *Tree) ApplyCtx(ctx context.Context, d Delta, epoch uint64) (*Tree, error) {
	if epoch <= t.epoch {
		return nil, fmt.Errorf("core: apply epoch %d is not above the current epoch %d", epoch, t.epoch)
	}
	if err := d.validate(t.table.Len()); err != nil {
		return nil, err
	}
	p := t.bp
	p.Epoch = epoch
	if p.Signer == nil {
		return nil, fmt.Errorf("core: tree is serve-only (no signer retained; e.g. reconstructed from an artifact); apply mutations on the owner's build and publish a new epoch")
	}
	if t.arr == nil {
		return BuildCtx(ctx, d.Table, p)
	}

	fs, err := p.Template.InterpretTable(d.Table)
	if err != nil {
		return nil, err
	}
	nt := &Tree{
		mode:     t.mode,
		space:    t.space,
		domain:   t.domain,
		template: t.template,
		hasher:   t.hasher,
		table:    d.Table,
		fs:       fs,
		verifier: t.verifier,
		epoch:    epoch,
		bp:       p,
	}

	// Digest: copy clean rows, hash dirty ones.
	p.progress(StageDigest, d.dirtyCount())
	nt.recDigests = make([]hashing.Digest, d.Table.Len())
	for oi, ni := range d.CleanRemap {
		if ni >= 0 {
			nt.recDigests[ni] = t.recDigests[oi]
		}
	}
	for ni, dirty := range d.DirtyNew {
		if dirty {
			nt.recDigests[ni] = nt.hasher.Record(d.Table.Records[ni])
		}
	}

	// Pairs: enumerate only the pairs touching dirty rows, and merge
	// them into the retained arrangement.
	dirtyInters, err := itree.DirtyPairs1D(fs, d.DirtyNew, t.domain)
	if err != nil {
		return nil, err
	}
	p.progress(StagePairs, len(dirtyInters))
	merged, classes, err := itree.MergeArrangement1D(t.space.(*itree.Space1D), t.arr, d.CleanRemap, dirtyInters)
	if err != nil {
		return nil, err
	}
	if err := nt.finish1D(ctx, p, merged, mutation{prev: t, delta: d, classes: classes}); err != nil {
		return nil, err
	}
	return nt, nil
}

// Fingerprint returns a canonical content digest of the published
// bundle — serving state only: the mode, epoch, domain, root digest and
// signature, and every subdomain's FMH root (and so its order),
// inequality encoding and signature. Two trees with equal fingerprints
// answer and verify identically; the mutation plane's equivalence tests
// compare fingerprints, and the front plane can use them to tell a
// forked server from a lagging one when epochs collide. Owner state (the
// sweep plan the next ApplyCtx replays) is not covered, so
// TestApplyPlanIsTheRebuildPlan holds the plan to apply≡rebuild itself.
func (t *Tree) Fingerprint() hashing.Digest {
	h := sha256.New()
	var w [8]byte
	put64 := func(v uint64) { binary.BigEndian.PutUint64(w[:], v); h.Write(w[:]) }
	putBytes := func(b []byte) { put64(uint64(len(b))); h.Write(b) }
	put64(uint64(t.mode))
	put64(t.epoch)
	for _, lo := range t.domain.Lo {
		put64(math.Float64bits(lo))
	}
	for _, hi := range t.domain.Hi {
		put64(math.Float64bits(hi))
	}
	h.Write(t.rootDigest[:])
	putBytes(t.rootSig)
	put64(uint64(len(t.subs)))
	for _, si := range t.subs {
		root := si.List.Root()
		h.Write(root[:])
		putBytes(si.IneqEnc)
		putBytes(si.Sig)
	}
	var out hashing.Digest
	copy(out[:], h.Sum(nil))
	return out
}

package core

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"

	"aqverify/internal/funcs"
	"aqverify/internal/geometry"
	"aqverify/internal/hashing"
	"aqverify/internal/itree"
	"aqverify/internal/record"
	"aqverify/internal/verify"
)

// Snapshot is the complete stored state of a serving Tree: every field
// a server needs to answer and authenticate queries that is not derived
// from the others. The artifact plane (internal/artifact) encodes a
// tree's Snapshot to disk and decodes blobs into one, which
// FromSnapshot validates into a Tree; the two directions meet at
// Fingerprint — a reconstructed tree fingerprints identically to the
// one that was snapshotted.
//
// A snapshot aliases the tree's internal state. It is a read view:
// callers must not mutate the referenced nodes, lists or slices.
type Snapshot struct {
	Mode     verify.Mode
	Epoch    uint64
	Domain   geometry.Box
	Template funcs.Template
	Table    record.Table
	// ITree is the IMH search tree with every node hash filled.
	ITree *itree.Tree
	// Subs carries each subdomain's FMH list — whose leaves are the
	// sorted order — and, in multi-signature mode, its inequality
	// encoding and signature.
	Subs []*SubInfo
	// RootSig is the owner's root signature (one-signature mode).
	RootSig  []byte
	Verifier verify.Verifier
}

// Snapshot returns the tree's serve-state. See Snapshot for the
// aliasing contract.
func (t *Tree) Snapshot() Snapshot {
	return Snapshot{
		Mode:     t.mode,
		Epoch:    t.epoch,
		Domain:   t.domain,
		Template: t.template,
		Table:    t.table,
		ITree:    t.itree,
		Subs:     t.subs,
		RootSig:  t.rootSig,
		Verifier: t.verifier,
	}
}

// FromSnapshot reconstructs a serving tree from a snapshot: it derives
// the record functions from the template, recomputes the root digest
// and decodes the multi-signature inequality sets — everything else
// (the IMH node hashes, the FMH forest, the signatures) is taken from
// the snapshot as-is, which is what makes reconstruction O(structure)
// instead of an O(n²) rebuild, with no per-record hashing.
//
// The result answers and authenticates queries exactly like the
// original (equal Fingerprint). It is a Tree, not an Owner: nothing can
// apply a mutation to it — the owner mutates its own build and
// publishes a new artifact.
//
// FromSnapshot validates structural consistency (counts, index ranges,
// mode-required fields), not cryptographic integrity: a caller that
// loads snapshots from untrusted bytes must bind them to a trusted
// content hash first (the artifact plane pins both a file hash and the
// fingerprint).
func FromSnapshot(s Snapshot) (*Tree, error) {
	if s.Table.Len() == 0 {
		return nil, fmt.Errorf("core: snapshot has an empty table")
	}
	if s.Verifier == nil {
		return nil, fmt.Errorf("core: snapshot carries no verifier")
	}
	if s.Epoch == 0 {
		return nil, fmt.Errorf("core: snapshot carries no epoch")
	}
	if s.ITree == nil || s.ITree.Root == nil {
		return nil, fmt.Errorf("core: snapshot carries no search tree")
	}
	if err := s.Template.Validate(s.Table.Schema.Arity()); err != nil {
		return nil, err
	}
	if s.Domain.Dim() != s.Template.Dim() {
		return nil, fmt.Errorf("core: snapshot domain is %d-D but template has %d variables",
			s.Domain.Dim(), s.Template.Dim())
	}
	if len(s.Subs) == 0 || len(s.Subs) != len(s.ITree.Subs) {
		return nil, fmt.Errorf("core: snapshot has %d sub infos for %d subdomains",
			len(s.Subs), len(s.ITree.Subs))
	}

	fs, err := s.Template.InterpretTable(s.Table)
	if err != nil {
		return nil, err
	}
	t := &Tree{
		mode:     s.Mode,
		epoch:    s.Epoch,
		domain:   s.Domain,
		template: s.Template,
		table:    s.Table,
		fs:       fs,
		itree:    s.ITree,
		subs:     s.Subs,
		rootSig:  s.RootSig,
		verifier: s.Verifier,
	}

	n := s.Table.Len()
	for i, si := range s.Subs {
		if si == nil || si.List == nil || si.Sub == nil {
			return nil, fmt.Errorf("core: snapshot subdomain %d is incomplete", i)
		}
		if si.Sub.ID != i {
			return nil, fmt.Errorf("core: snapshot subdomain %d carries id %d", i, si.Sub.ID)
		}
		if si.List.LeafCount() != n+2 {
			return nil, fmt.Errorf("core: subdomain %d list covers %d leaves for %d records",
				i, si.List.LeafCount(), n)
		}
	}

	switch s.Mode {
	case verify.OneSignature:
		if len(s.RootSig) == 0 {
			return nil, fmt.Errorf("core: one-signature snapshot carries no root signature")
		}
		t.sigCount = 1
	case verify.MultiSignature:
		for i, si := range s.Subs {
			if len(si.Sig) == 0 || len(si.IneqEnc) == 0 {
				return nil, fmt.Errorf("core: multi-signature snapshot subdomain %d carries no signature", i)
			}
			if si.Ineqs == nil {
				ineqs, err := geometry.DecodeHalfspaces(si.IneqEnc)
				if err != nil {
					return nil, fmt.Errorf("core: subdomain %d inequality encoding: %w", i, err)
				}
				si.Ineqs = ineqs
			}
		}
		t.sigCount = len(s.Subs)
	default:
		return nil, fmt.Errorf("core: unknown mode %v", s.Mode)
	}

	t.rootDigest = hashing.New(nil).Root(s.ITree.Root.Hash)
	return t, nil
}

// Fingerprint returns a canonical content digest of the published
// bundle — serving state only: the mode, epoch, domain, root digest and
// signature, and every subdomain's FMH root (and so its order),
// inequality encoding and signature. Two trees with equal fingerprints
// answer and verify identically; the mutation plane's equivalence tests
// compare fingerprints, and the front plane can use them to tell a
// forked server from a lagging one when epochs collide. Owner state is
// not covered.
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

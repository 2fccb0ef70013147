// Package core implements the paper's contribution: the Intersection and
// Function Merkle Hash tree (IFMH-tree) and its two signing schemes.
//
// An IFMH-tree combines
//
//   - an IMH-tree — the I-tree over the pairwise intersection hyperplanes,
//     augmented with Merkle hashes so that a root-to-leaf path
//     authenticates the subdomain lookup — and
//   - one FMH-tree per subdomain — a Merkle tree over that subdomain's
//     sorted function list, bracketed by f_min/f_max sentinels.
//
// In the one-signature scheme only the IMH root digest is signed;
// verification objects carry the IMH search path. In the multi-signature
// scheme every subdomain's digest H(H(ineqs)|fmhRoot) is signed;
// verification objects carry the subdomain's inequality set instead of
// the path.
//
// The entry points are BuildCtx, which returns the owner's side of a
// publication (Owner), and Tree.Process on the server's side; the
// answers they produce are checked by package verify.
package core

import (
	"runtime"

	"aqverify/internal/fmh"
	"aqverify/internal/funcs"
	"aqverify/internal/geometry"
	"aqverify/internal/hashing"
	"aqverify/internal/itree"
	"aqverify/internal/mhtree"
	"aqverify/internal/record"
	"aqverify/internal/sig"
	"aqverify/internal/verify"
)

// The verifier's names, kept for the benchmark module's callers only:
// every in-repo caller names package verify directly.
type (
	Answer       = verify.Answer
	PublicParams = verify.PublicParams
)

const (
	OneSignature   = verify.OneSignature
	MultiSignature = verify.MultiSignature
)

var (
	ErrVerification = verify.ErrVerification
	Verify          = verify.Verify
)

// Params configures BuildCtx.
type Params struct {
	// Mode selects one-signature or multi-signature.
	Mode verify.Mode
	// Signer is the data owner's signing key.
	Signer sig.Signer
	// Domain is the owner-specified bounded domain of the function
	// variables; its dimension must match the template.
	Domain geometry.Box
	// OpenHi gives a univariate Domain's upper edge to the next shard,
	// as shard.Plan routes a cut: the build partitions only the floats
	// below it, so no leaf is the edge alone, which no query reaches.
	// Set for every shard of a set but the last.
	OpenHi bool
	// Template interprets records as functions.
	Template funcs.Template
	// Hasher provides the one-way hash; nil means an uninstrumented
	// SHA-256 hasher.
	Hasher *hashing.Hasher
	// Seed seeds the canonical priorities that shape an n-D IMH-tree
	// (see itree's canonical order): every seed gives an
	// expected-logarithmic tree, a different seed a different one. A
	// univariate tree is the median split over its thresholds, the same
	// for every seed. Only one-signature verification objects — which
	// carry the IMH path — depend on the shape.
	Seed int64
	// Workers bounds the construction worker pool sharding record
	// digesting, n-D FMH-list building, hash propagation and
	// multi-signature signing; the 1-D sweep is serial. Zero (the default) means runtime.GOMAXPROCS(0); 1
	// reproduces the serial path. The built tree — root digest,
	// signatures, hash counts — is identical for every worker count.
	Workers int
	// Progress, when non-nil, is invoked from the building goroutine at
	// the start of every construction stage with the stage and the number
	// of units (records, intersections, subdomains, tree nodes, ...) the
	// stage is about to process. It must be cheap and must not block.
	Progress func(stage Stage, units int)
	// Epoch stamps the built tree's publication epoch. Zero means 1 —
	// the first epoch of a fresh outsourcing; a mutated table is built
	// again at the next one (build.Apply). Clients pin the epoch their
	// verification ran against, so a bundle's epoch is part of its
	// published identity.
	Epoch uint64
}

// Stage names one construction stage for Params.Progress callbacks, in
// the order the stages run.
type Stage string

// The construction stages, in execution order. StagePairs occurs only
// for univariate templates, whose StageLists is the sweep.
const (
	StageDigest    Stage = "digest"    // record digesting
	StagePairs     Stage = "pairs"     // pairwise-intersection enumeration (1-D)
	StageITree     Stage = "itree"     // I-tree construction
	StageLists     Stage = "lists"     // per-subdomain FMH-list construction
	StagePropagate Stage = "propagate" // IMH-tree hash propagation
	StageSign      Stage = "sign"      // root / per-subdomain signing
)

// workers resolves the configured worker count; zero or negative means
// one worker per available CPU.
func (p Params) workers() int {
	if p.Workers > 0 {
		return p.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// SubInfo is the per-subdomain state of a built tree.
type SubInfo struct {
	Sub  *itree.Subdomain
	List fmh.List
	// IneqEnc is the canonical encoding of the subdomain's inequality
	// set; Ineqs is its decoded form (multi-signature mode only).
	IneqEnc []byte
	Ineqs   []geometry.Halfspace
	// Sig is the subdomain signature (multi-signature mode only).
	Sig []byte
}

// Tree is a built IFMH-tree, the server-side authenticated data
// structure: everything a server reads to answer and authenticate
// queries, and nothing else. The owner's side of a publication is
// Owner, which embeds the Tree it handed out.
type Tree struct {
	mode     verify.Mode
	epoch    uint64
	domain   geometry.Box
	template funcs.Template

	table record.Table
	fs    []funcs.Linear

	itree  *itree.Tree
	subs   []*SubInfo
	forest *mhtree.Forest // every subdomain list's rows

	rootDigest hashing.Digest
	rootSig    []byte // one-signature mode
	verifier   verify.Verifier
	sigCount   int
}

// Owner is the data owner's side of one built tree: the serving Tree it
// hands to the cloud, plus the build parameters (with the signing key)
// and the hasher its construction ran with, and the 1-D sweep's
// transposition count (Stats.TotalSwaps). Nothing of it is read after
// BuildCtx returns but the Tree and Stats: a later epoch is a fresh
// BuildCtx of the mutated table (build.Apply). A server is handed the
// embedded Tree, which reaches none of the rest.
type Owner struct {
	*Tree
	p      Params
	hasher *hashing.Hasher
	swaps  int // the 1-D sweep's transposition count
}

// Mode returns the tree's signing scheme.
func (t *Tree) Mode() verify.Mode { return t.mode }

// Public returns the parameters the owner publishes for clients.
func (t *Tree) Public() verify.PublicParams {
	return verify.PublicParams{Verifier: t.verifier, Template: t.template, Mode: t.mode, Epoch: t.epoch}
}

// Epoch returns the tree's publication epoch (1 for a fresh build,
// bumped by every applied mutation batch).
func (t *Tree) Epoch() uint64 { return t.epoch }

// Table returns the outsourced table the tree authenticates. The
// mutation plane indexes its deletes and updates against it.
func (t *Tree) Table() record.Table { return t.table }

// NumSubdomains returns the subdomain (FMH-tree) count.
func (t *Tree) NumSubdomains() int { return len(t.subs) }

// Domain returns the owner-specified bounded domain the tree partitions
// (one shard's sub-box in a domain-sharded deployment).
func (t *Tree) Domain() geometry.Box { return t.domain }

// NumRecords returns the database size.
func (t *Tree) NumRecords() int { return t.table.Len() }

// SignatureCount returns how many signatures the construction produced
// (1 for one-signature, S for multi-signature) — the paper's Fig 5a
// metric.
func (t *Tree) SignatureCount() int { return t.sigCount }

// Depth returns the IMH-tree depth.
func (t *Tree) Depth() int { return t.itree.Depth() }

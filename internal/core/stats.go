package core

import (
	"aqverify/internal/mhtree"
)

// Stats describes a built IFMH-tree's footprint — the data the owner
// uploads to the cloud (paper Fig 5c) and the signature counts (Fig 5a).
type Stats struct {
	Records    int
	Subdomains int
	// IMHNodes counts I-tree nodes (internal + leaves).
	IMHNodes int
	// IMHDepth is the maximum root-to-leaf path length.
	IMHDepth int
	// FMHNodes counts distinct Merkle nodes across all subdomain lists,
	// deduplicating persistent sharing.
	FMHNodes int
	// Signatures and SignatureBytes cover the owner's signatures.
	Signatures     int
	SignatureBytes int
	// TotalSwaps is the sweep plan's transposition count: owner state,
	// so zero for a Tree's Stats and for a multivariate Owner's.
	TotalSwaps int
	// ApproxBytes estimates the serialized structure size from the
	// component counts (see the constants below).
	ApproxBytes int
}

// Per-component byte estimates for ApproxBytes. IMH nodes store a digest
// plus two child references and an intersection reference; FMH nodes a
// digest, two references and a width (exported for ablation A1, which
// prices the nodes a from-scratch forest would add); each 1-D
// intersection costs its two endpoints' worth of hyperplane data.
const (
	bytesPerIMHNode = 32 + 8 + 8 + 8
	BytesPerFMHNode = 32 + 8 + 8 + 8
	bytesPerSwap    = 8
)

// Stats computes the serving tree's footprint.
func (t *Tree) Stats() Stats { return t.stats(0) }

// Stats computes the published tree's footprint, counting the sweep
// plan's transpositions (owner state).
func (o *Owner) Stats() Stats { return o.Tree.stats(o.swaps) }

func (t *Tree) stats(swaps int) Stats {
	s := Stats{
		Records:    t.table.Len(),
		Subdomains: len(t.subs),
		IMHNodes:   t.itree.NodeCount,
		IMHDepth:   t.itree.Depth(),
		Signatures: t.sigCount,
		TotalSwaps: swaps,
	}
	roots := make([]*mhtree.Node, 0, len(t.subs))
	for _, si := range t.subs {
		roots = append(roots, si.List.Tree)
		s.SignatureBytes += len(si.Sig)
	}
	s.SignatureBytes += len(t.rootSig)
	s.FMHNodes = mhtree.CountForest(roots)

	recordBytes := 0
	for _, r := range t.table.Records {
		recordBytes += len(r.Encode(nil))
	}
	hyperplaneBytes := 0
	for _, si := range t.subs {
		hyperplaneBytes += len(si.IneqEnc)
	}
	s.ApproxBytes = s.IMHNodes*bytesPerIMHNode +
		s.FMHNodes*BytesPerFMHNode +
		s.TotalSwaps*bytesPerSwap +
		s.SignatureBytes +
		recordBytes +
		hyperplaneBytes
	return s
}

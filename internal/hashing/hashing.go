// Package hashing centralizes the one-way hash used by every verification
// structure. All hashes are SHA-256 with a one-byte domain-separation tag,
// so a record digest can never be confused with a tree-node digest or a
// sentinel token, closing the cross-context collision attacks a plain
// H(a|b) construction invites.
//
// A Hasher carries an optional metrics.Counter so the evaluation can
// report hash-operation counts (paper Fig 7a) without global state.
package hashing

import (
	"crypto/sha256"
	"encoding/binary"

	"aqverify/internal/metrics"
	"aqverify/internal/record"
)

// Size is the digest size in bytes.
const Size = sha256.Size

// Digest is a SHA-256 output.
type Digest = [Size]byte

// Domain-separation tags. Each hash context gets a distinct tag byte.
const (
	// TagRecord prefixes record digests H(r): the mesh baseline's only.
	TagRecord byte = 0x01
	// TagLeaf prefixes FMH-tree leaf digests H(r), one hash per record.
	TagLeaf byte = 0x02
	// TagNode prefixes internal Merkle-node digests H(l | r).
	TagNode byte = 0x03
	// TagSentinelMin and TagSentinelMax are the f_min / f_max tokens that
	// bracket every sorted function list.
	TagSentinelMin byte = 0x04
	TagSentinelMax byte = 0x05
	// TagIntersection prefixes IMH intersection-node digests, binding the
	// node's hyperplane to its children.
	TagIntersection byte = 0x06
	// TagSubdomain prefixes IMH subdomain-leaf digests (over the linked
	// FMH root).
	TagSubdomain byte = 0x07
	// TagIneqs prefixes the digest of a subdomain's inequality set
	// (multi-signature scheme).
	TagIneqs byte = 0x08
	// TagMultiSig prefixes the digest signed per subdomain:
	// H(TagMultiSig | H(ineqs) | fmhRoot).
	TagMultiSig byte = 0x09
	// TagMeshPair prefixes the signature-mesh digest for one consecutive
	// function pair over one run of subdomains.
	TagMeshPair byte = 0x0a
	// TagRoot prefixes the final signed root digest of the one-signature
	// scheme.
	TagRoot byte = 0x0b
)

// Hasher computes tagged SHA-256 digests and counts operations. The zero
// value is usable; the counter may be nil. Hasher is not safe for
// concurrent use; create one per goroutine (their only state is the
// counter and the record-encoding scratch).
type Hasher struct {
	ctr *metrics.Counter
	buf [256]byte // sumRecord's scratch, held inline: a Hasher on the stack allocates nothing
	enc []byte    // sumRecord's scratch past len(buf): one per Hasher, not one per leaf
}

// New returns a Hasher that records operation counts into ctr (which may
// be nil).
func New(ctr *metrics.Counter) *Hasher { return &Hasher{ctr: ctr} }

// WithCounter returns a Hasher sharing no state with h but reporting to
// ctr. Useful to re-point instrumentation per operation.
func (h *Hasher) WithCounter(ctr *metrics.Counter) *Hasher { return &Hasher{ctr: ctr} }

// Counter returns the hasher's counter (possibly nil).
func (h *Hasher) Counter() *metrics.Counter { return h.ctr }

// sum hashes tag || parts... and counts one hash operation.
func (h *Hasher) sum(tag byte, parts ...[]byte) Digest {
	hs := sha256.New()
	n := uint64(1)
	hs.Write([]byte{tag})
	for _, p := range parts {
		hs.Write(p)
		n += uint64(len(p))
	}
	h.ctr.AddHash(1, n)
	var d Digest
	hs.Sum(d[:0])
	return d
}

// Record returns the mesh baseline's record digest H(TagRecord | enc(r)).
func (h *Hasher) Record(r record.Record) Digest { return h.sumRecord(TagRecord, r) }

// Leaf returns the FMH leaf digest H(TagLeaf | enc(r)): one hash per
// leaf, on the owner's side and the client's alike.
func (h *Hasher) Leaf(r record.Record) Digest { return h.sumRecord(TagLeaf, r) }

// sumRecord hashes tag | enc(r), encoding into the scratch.
func (h *Hasher) sumRecord(tag byte, r record.Record) Digest {
	if r.EncodedLen() <= len(h.buf) {
		return h.sum(tag, r.Encode(h.buf[:0]))
	}
	h.enc = r.Encode(h.enc[:0])
	return h.sum(tag, h.enc)
}

// SentinelMin returns the digest of the f_min token for a list. The list
// length is bound in so sentinel leaves from different-size lists are
// distinct values.
func (h *Hasher) SentinelMin(listLen int) Digest {
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], uint64(listLen))
	return h.sum(TagSentinelMin, buf[:])
}

// SentinelMax returns the digest of the f_max token for a list.
func (h *Hasher) SentinelMax(listLen int) Digest {
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], uint64(listLen))
	return h.sum(TagSentinelMax, buf[:])
}

// Node returns the internal Merkle-node digest H(TagNode | l | r).
func (h *Hasher) Node(l, r Digest) Digest {
	return h.sum(TagNode, l[:], r[:])
}

// Intersection returns the IMH intersection-node digest, binding the
// hyperplane encoding so a verifier can re-check branch directions:
// H(TagIntersection | enc(hp) | above | below).
func (h *Hasher) Intersection(hpEnc []byte, above, below Digest) Digest {
	return h.sum(TagIntersection, hpEnc, above[:], below[:])
}

// Subdomain returns the IMH subdomain-leaf digest over its FMH root.
func (h *Hasher) Subdomain(fmhRoot Digest) Digest {
	return h.sum(TagSubdomain, fmhRoot[:])
}

// Ineqs returns the digest of a subdomain's canonical inequality-set
// encoding.
func (h *Hasher) Ineqs(enc []byte) Digest {
	return h.sum(TagIneqs, enc)
}

// MultiSig returns the digest the multi-signature scheme signs per
// subdomain: H(TagMultiSig | H(ineqs) | fmhRoot).
func (h *Hasher) MultiSig(ineqDigest, fmhRoot Digest) Digest {
	return h.sum(TagMultiSig, ineqDigest[:], fmhRoot[:])
}

// MeshPair returns the signature-mesh digest for a consecutive pair over a
// run of subdomains: H(TagMeshPair | a | b | runEnc) where a and b are the
// two record (or sentinel) digests and runEnc canonically encodes the
// run's domain interval.
func (h *Hasher) MeshPair(a, b Digest, runEnc []byte) Digest {
	return h.sum(TagMeshPair, a[:], b[:], runEnc)
}

// Root returns the signed root digest of the one-signature scheme.
func (h *Hasher) Root(imhRoot Digest) Digest {
	return h.sum(TagRoot, imhRoot[:])
}

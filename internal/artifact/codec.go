package artifact

import (
	"crypto/sha256"
	"fmt"
	"math"

	"aqverify/internal/codec"
	"aqverify/internal/core"
	"aqverify/internal/fmh"
	"aqverify/internal/funcs"
	"aqverify/internal/geometry"
	"aqverify/internal/hashing"
	"aqverify/internal/itree"
	"aqverify/internal/mhtree"
	"aqverify/internal/record"
	"aqverify/internal/shard"
	"aqverify/internal/verify"
)

// formatVersion is the on-disk format version both file kinds carry.
// Bump it on any layout change; Open refuses versions it does not know.
// Version 2 put the record index in FMH leaf rows (version 1 leaves named
// no record, so a version-1 forest cannot serve); version 3 dropped the
// tree blob's flags byte and the per-subdomain permutation rows it
// announced — the leaves are the only copy of the order; version 4
// dropped the sweep plan, owner state no server reads.
const formatVersion = 4

// nilIndex marks a nil child pointer / absent shard index in the node
// tables (indices are u32, so the all-ones value can never be a real
// index of an accepted file: counts are bounded far below it).
const nilIndex = ^uint32(0)

// File magics: every artifact file opens with four bytes naming its
// kind, so a wrong or swapped file is refused by name before any
// structure is parsed.
var (
	magicTree     = [4]byte{'A', 'Q', 'A', 'T'} // tree blob
	magicManifest = [4]byte{'A', 'Q', 'A', 'M'} // manifest
)

// seal appends the SHA-256 of everything written so far — the file's
// trailing content hash — and returns the finished bytes and that hash.
func seal(w *codec.Writer) ([]byte, hashing.Digest) {
	h := hashing.Digest(sha256.Sum256(w.Buf))
	w.Buf = append(w.Buf, h[:]...)
	return w.Buf, h
}

func writeBox(w *codec.Writer, b geometry.Box) {
	w.U32(uint32(b.Dim()))
	writeF64s(w, b.Lo)
	writeF64s(w, b.Hi)
}

func writeF64s(w *codec.Writer, vs []float64) {
	for _, v := range vs {
		w.F64(v)
	}
}

// readDigest reads a raw 32-byte digest.
func readDigest(r *codec.Reader, what string) (d hashing.Digest) {
	copy(d[:], r.Take(len(d), what))
	return d
}

// readF64s reads n floats, n bounded by the bytes left.
func readF64s(r *codec.Reader, n int, what string) []float64 {
	if r.Err() != nil || n > len(r.Buf)/8+1 {
		r.Corrupt("implausible %s count %d", what, n)
		return nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = r.F64(what)
	}
	return out
}

func readBox(r *codec.Reader, what string) geometry.Box {
	dim := r.Count(what+" dimension", 16)
	lo := readF64s(r, dim, what+" lower corner")
	hi := readF64s(r, dim, what+" upper corner")
	if r.Err() != nil {
		return geometry.Box{}
	}
	b, err := geometry.NewBox(lo, hi)
	if err != nil {
		r.Corrupt("%s: %v", what, err)
	}
	return b
}

// encodeTree serializes one built tree's serve-state into a sealed blob.
// The FMH forest is a children-before-parents node table indexed by
// position: a list reuses its left neighbor's row wherever it holds the
// same node at the same position, which is all the sharing a sweep chain
// has, so the file is O(forest), not O(S·n). The IMH tree is a
// post-order table. shardIdx is the tree's position in a sharded set, or
// build.ShardNone. The blob is one allocation of its exact length
// (TestEncodeTreeIsOneExactAllocation).
func encodeTree(s core.Snapshot, shardIdx int) ([]byte, hashing.Digest, error) {
	nf := forestBound(s)
	ni, isize := imhSize(s.ITree.Root)
	w := &codec.Writer{Buf: make([]byte, 0, sizeTree(s, nf, isize))}
	w.Buf = append(w.Buf, magicTree[:]...)
	w.U32(formatVersion)
	w.U64(s.Epoch)
	w.U8(uint8(s.Mode))
	if shardIdx < 0 {
		w.U32(nilIndex)
	} else {
		w.U32(uint32(shardIdx))
	}
	writeBox(w, s.Domain)

	// Records: the canonical record codec, prefixed by the schema the
	// table validates against.
	w.Bytes([]byte(s.Table.Schema.Name))
	w.U32(uint32(len(s.Table.Schema.Columns)))
	for _, c := range s.Table.Schema.Columns {
		w.Bytes([]byte(c.Name))
		w.Bytes([]byte(c.Description))
	}
	w.U32(uint32(s.Table.Len()))
	for _, rec := range s.Table.Records {
		w.Buf = rec.Encode(w.Buf)
	}

	// A row is digest, left, right, width. A leaf has no children: its
	// left slot is nilIndex and its right slot names the record the leaf
	// commits to — mhtree.NoRecord (-1, a sentinel's) is nilIndex as a u32.
	// slot[p] is the row of the last list's node at post-order position
	// p of the (n+2)-leaf shape; a width-wd subtree from position at has
	// its root at at+2wd-2. forestBound counts the rows this writes.
	w.U32(uint32(nf))
	slot := make([]uint32, 2*s.Subs[0].List.Tree.W-1)
	rows := uint32(0)
	var row func(n, prev *mhtree.Node, at int) uint32
	row = func(n, prev *mhtree.Node, at int) uint32 {
		p := at + 2*int(n.W) - 2
		if n == prev {
			return slot[p]
		}
		l, r := nilIndex, uint32(n.Rec)
		if n.L != nil {
			var pl, pr *mhtree.Node
			if prev != nil {
				pl, pr = prev.L, prev.R
			}
			l = row(n.L, pl, at)
			r = row(n.R, pr, at+2*int(n.L.W)-1)
		}
		w.Buf = append(w.Buf, n.H[:]...)
		w.U32(l)
		w.U32(r)
		w.U32(uint32(n.W))
		slot[p], rows = rows, rows+1
		return slot[p]
	}
	roots := make([]uint32, len(s.Subs))
	var prev *mhtree.Node
	for k, si := range s.Subs {
		roots[k] = row(si.List.Tree, prev, 0)
		prev = si.List.Tree
	}
	w.U32(uint32(len(roots)))
	for _, ri := range roots {
		w.U32(ri)
	}

	// Per-subdomain inequality encoding and signature (multi-signature
	// mode only).
	if s.Mode == verify.MultiSignature {
		for _, si := range s.Subs {
			w.Bytes(si.IneqEnc)
			w.Bytes(si.Sig)
		}
	}

	// IMH tree: post-order (children strictly before parents; the root
	// is the last row), every node carrying its propagated hash so
	// loading never re-propagates.
	w.U32(uint32(ni))
	irows := uint32(0)
	var irow func(n *itree.Node) uint32
	irow = func(n *itree.Node) uint32 {
		if n.IsLeaf() {
			w.U8(0)
			w.U32(uint32(n.Leaf.ID))
		} else {
			above, below := irow(n.Above), irow(n.Below)
			w.U8(1)
			w.U32(uint32(n.Int.I))
			w.U32(uint32(n.Int.J))
			w.U32(uint32(n.Int.H.EncodedLen()))
			w.Buf = n.Int.H.Encode(w.Buf)
			w.U32(above)
			w.U32(below)
		}
		w.Buf = append(w.Buf, n.Hash[:]...)
		irows++
		return irows - 1
	}
	irow(s.ITree.Root)

	w.Bytes(s.RootSig)
	buf, h := seal(w)
	return buf, h, nil
}

// forestBound counts the FMH rows encodeTree writes, from the lists
// themselves: the first whole, then each list's nodes that its left
// neighbor does not hold at the same position. For a sweep chain, built
// or loaded, and for lists built from scratch that is the forest's
// distinct nodes; a forest sharing a node across positions gets a row
// per position.
func forestBound(s core.Snapshot) int {
	n := 2*s.Subs[0].List.Tree.LeafCount() - 1
	for k := 1; k < len(s.Subs); k++ {
		n += mhtree.ChangedNodes(s.Subs[k-1].List.Tree, s.Subs[k].List.Tree)
	}
	return n
}

// imhSize counts the rows and bytes of the IMH table under n.
func imhSize(n *itree.Node) (rows, size int) {
	if n.IsLeaf() {
		return 1, 1 + 4 + hashing.Size
	}
	ra, sa := imhSize(n.Above)
	rb, sb := imhSize(n.Below)
	return ra + rb + 1, sa + sb + 1 + 4 + 4 + 4 + n.Int.H.EncodedLen() + 4 + 4 + hashing.Size
}

// sizeTree is len(encodeTree(s, …)) for a forest of nf rows and an IMH
// table of isize bytes, field for field in encodeTree's order.
func sizeTree(s core.Snapshot, nf, isize int) int {
	n := len(magicTree) + 4 + 8 + 1 + 4 + 4 + 16*s.Domain.Dim()
	n += 4 + len(s.Table.Schema.Name) + 4
	for _, c := range s.Table.Schema.Columns {
		n += 4 + len(c.Name) + 4 + len(c.Description)
	}
	n += 4
	for _, rec := range s.Table.Records {
		n += rec.EncodedLen()
	}
	n += 4 + forestRow*nf + 4 + 4*len(s.Subs)
	if s.Mode == verify.MultiSignature {
		for _, si := range s.Subs {
			n += 4 + len(si.IneqEnc) + 4 + len(si.Sig)
		}
	}
	return n + 4 + isize + 4 + len(s.RootSig) + hashing.Size
}

// forestRow is one FMH node row: digest, left, right, width.
const forestRow = hashing.Size + 4 + 4 + 4

// leafSpan classifies the leaves under an FMH node by where the
// sentinels (leaves naming no record) sit. The server indexes its table
// with whatever a non-end leaf names, so a list must be exactly
// sentinel, n records, sentinel — checked bottom-up, one join per row,
// because the forest shares nodes across lists.
type leafSpan uint8

const (
	spanInvalid  leafSpan = iota // a sentinel strictly inside, or none where one is due
	spanRecords                  // every leaf names a record
	spanSentinel                 // a single sentinel leaf
	spanMinEnd                   // a sentinel, then records
	spanMaxEnd                   // records, then a sentinel
	spanList                     // a sentinel, records (possibly none), a sentinel
)

// joinSpans classifies a node from its left and right subtrees.
func joinSpans(l, r leafSpan) leafSpan {
	opens := l == spanSentinel || l == spanMinEnd
	closes := r == spanSentinel || r == spanMaxEnd
	switch {
	case l == spanRecords && r == spanRecords:
		return spanRecords
	case opens && r == spanRecords:
		return spanMinEnd
	case l == spanRecords && closes:
		return spanMaxEnd
	case opens && closes:
		return spanList
	}
	return spanInvalid
}

// decodedTree is a structurally parsed tree blob: the core.Snapshot
// core.FromSnapshot validates, all but its template and verifier (which
// live in the manifest), plus the header fields Open cross-checks
// against the manifest.
type decodedTree struct {
	core.Snapshot
	shard uint32         // nilIndex when the blob belongs to no shard
	hash  hashing.Digest // the sealed trailer
}

// decodeTree parses a tree blob. The structural pass validates every
// count, index and cross-reference (children before parents, leaf ids
// unique and in range, node widths consistent, every list's leaves
// naming records of the table between two sentinels) so that no accepted
// structure can make the serving tree index out of bounds; the sealed
// trailer is checked last, so a file that parses but was bit-flipped
// is refused as ErrCorrupt by content hash. Variable-length fields
// alias data — on a memory-mapped file the signatures, inequality
// encodings and record payloads are served straight out of the map.
func decodeTree(data []byte) (*decodedTree, error) {
	if len(data) < len(magicTree) {
		return nil, fmt.Errorf("%w: %d-byte file", ErrTruncated, len(data))
	}
	if [4]byte(data[:4]) != magicTree {
		return nil, fmt.Errorf("%w: %q is not a tree blob", ErrBadMagic, data[:4])
	}
	r := &codec.Reader{Buf: data[4:]}
	if v := r.U32("version"); r.Err() == nil && v != formatVersion {
		return nil, fmt.Errorf("%w: tree blob version %d (want %d)", ErrVersion, v, formatVersion)
	}

	d := &decodedTree{}
	d.Epoch = r.U64("epoch")
	mode := r.U8("mode")
	if mode > uint8(verify.MultiSignature) {
		r.Corrupt("unknown mode %d", mode)
	}
	d.Mode = verify.Mode(mode)
	d.shard = r.U32("shard index")
	d.Domain = readBox(r, "domain")
	dim := d.Domain.Dim()

	// Records.
	schema := record.Schema{Name: string(r.Bytes("schema name"))}
	ncols := r.Count("schema column", 8)
	schema.Columns = make([]record.Column, ncols)
	for i := range schema.Columns {
		schema.Columns[i] = record.Column{Name: string(r.Bytes("column name")), Description: string(r.Bytes("column description"))}
	}
	n := r.Count("record", 16)
	recs := make([]record.Record, n)
	for i := range recs {
		recs[i].ID = r.U64("record id")
		recs[i].Attrs = readF64s(r, r.Count("attribute", 8), "attributes")
		recs[i].Payload = r.Bytes("record payload")
	}
	if r.Err() != nil {
		return nil, r.Err()
	}
	tbl, err := record.NewTable(schema, recs)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	d.Table = tbl

	// FMH forest.
	nf := r.Count("fmh node", forestRow)
	forest := make([]mhtree.Node, nf)
	spans := make([]leafSpan, nf)
	for i := range forest {
		forest[i].H = readDigest(r, "fmh node hash")
		l, rr := r.U32("fmh left child"), r.U32("fmh right child")
		wdt := r.U32("fmh node width")
		if r.Err() != nil {
			return nil, r.Err()
		}
		if uint64(wdt) > uint64(n)+2 || wdt > math.MaxInt32 {
			r.Corrupt("fmh node %d has width %d for %d records", i, wdt, n)
			return nil, r.Err()
		}
		forest[i].W, forest[i].Rec = int32(wdt), mhtree.NoRecord
		switch {
		case l == nilIndex:
			// A leaf: the right slot is its record (nilIndex: none).
			spans[i] = spanSentinel
			if wdt != 1 {
				r.Corrupt("fmh leaf %d has width %d", i, wdt)
			} else if rr != nilIndex {
				if uint64(rr) >= uint64(n) {
					r.Corrupt("fmh leaf %d names record %d outside %d records", i, rr, n)
				}
				forest[i].Rec, spans[i] = int32(rr), spanRecords
			}
		case rr == nilIndex:
			r.Corrupt("fmh node %d has one child", i)
		case uint64(l) >= uint64(i) || uint64(rr) >= uint64(i):
			r.Corrupt("fmh node %d references a later node", i)
		default:
			forest[i].L, forest[i].R = &forest[l], &forest[rr]
			if int64(wdt) != int64(forest[l].W)+int64(forest[rr].W) || int(forest[l].W) != verify.LeftWidth(int(wdt)) {
				r.Corrupt("fmh node %d has inconsistent width %d", i, wdt)
			}
			if spans[i] = joinSpans(spans[l], spans[rr]); spans[i] == spanInvalid {
				r.Corrupt("fmh node %d has a sentinel leaf inside its span", i)
			}
		}
		if r.Err() != nil {
			return nil, r.Err()
		}
	}
	ns := r.Count("subdomain", 4)
	if ns < 1 {
		r.Corrupt("no subdomains")
	}
	subs := make([]*core.SubInfo, ns)
	for i := range subs {
		ri := r.U32("fmh root index")
		if r.Err() != nil {
			return nil, r.Err()
		}
		if uint64(ri) >= uint64(nf) {
			r.Corrupt("subdomain %d fmh root %d outside %d nodes", i, ri, nf)
			return nil, r.Err()
		}
		if int(forest[ri].W) != n+2 {
			r.Corrupt("subdomain %d list covers %d leaves for %d records", i, forest[ri].W, n)
			return nil, r.Err()
		}
		if spans[ri] != spanList {
			r.Corrupt("subdomain %d list is not n records between two sentinels", i)
			return nil, r.Err()
		}
		subs[i] = &core.SubInfo{List: &fmh.List{N: n, Tree: &forest[ri]}}
	}

	// Per-subdomain inequality encodings and signatures.
	if d.Mode == verify.MultiSignature {
		for _, si := range subs {
			si.IneqEnc = r.Bytes("inequality encoding")
			si.Sig = r.Bytes("subdomain signature")
			if r.Err() != nil {
				return nil, r.Err()
			}
		}
	}

	// IMH tree.
	nt := r.Count("imh node", 37)
	if nt < 1 {
		r.Corrupt("empty imh tree")
	}
	inodes := make([]itree.Node, nt)
	leaves := make([]itree.Subdomain, ns)
	subPtrs := make([]*itree.Subdomain, ns)
	seen := 0
	for i := range inodes {
		switch kind := r.U8("imh node kind"); {
		case r.Err() != nil:
			return nil, r.Err()
		case kind == 0:
			sid := r.U32("imh leaf subdomain")
			if r.Err() != nil {
				return nil, r.Err()
			}
			if uint64(sid) >= uint64(ns) {
				r.Corrupt("imh leaf subdomain %d outside %d", sid, ns)
			} else if subPtrs[sid] != nil {
				r.Corrupt("duplicate imh leaf for subdomain %d", sid)
			} else {
				leaves[sid] = itree.Subdomain{ID: int(sid)}
				subPtrs[sid] = &leaves[sid]
				inodes[i].Leaf = subPtrs[sid]
				seen++
			}
		case kind == 1:
			ii, jj := r.U32("intersection i"), r.U32("intersection j")
			enc := r.Bytes("hyperplane")
			ai, bi := r.U32("above child"), r.U32("below child")
			if r.Err() != nil {
				return nil, r.Err()
			}
			if uint64(ii) >= uint64(jj) || uint64(jj) >= uint64(n) {
				r.Corrupt("imh node %d intersection (%d,%d) outside %d functions", i, ii, jj, n)
				break
			}
			if uint64(ai) >= uint64(i) || uint64(bi) >= uint64(i) {
				r.Corrupt("imh node %d references a later child", i)
				break
			}
			hp, err := geometry.DecodeHyperplane(enc)
			if err != nil || len(hp.C) != dim {
				r.Corrupt("imh node %d hyperplane encoding", i)
				break
			}
			inodes[i].Int = &itree.Intersection{I: int(ii), J: int(jj), H: hp}
			inodes[i].Above, inodes[i].Below = &inodes[ai], &inodes[bi]
		default:
			r.Corrupt("unknown imh node kind %d", kind)
		}
		inodes[i].Hash = readDigest(r, "imh node hash")
		if r.Err() != nil {
			return nil, r.Err()
		}
	}
	if r.Err() != nil {
		return nil, r.Err()
	}
	if seen != ns {
		r.Corrupt("imh tree has %d leaves for %d subdomains", seen, ns)
		return nil, r.Err()
	}
	for i, si := range subs {
		si.Sub = subPtrs[i]
	}
	d.ITree = &itree.Tree{Root: &inodes[nt-1], Subs: subPtrs, NodeCount: nt}
	d.Subs = subs

	d.RootSig = r.Bytes("root signature")

	// Sealed trailer: the content hash over everything before it.
	want := readDigest(r, "content hash")
	if err := r.Done(); err != nil {
		return nil, err
	}
	d.hash = hashing.Digest(sha256.Sum256(data[:len(data)-len(want)]))
	if d.hash != want {
		return nil, fmt.Errorf("%w: tree blob content hash mismatch", ErrCorrupt)
	}
	return d, nil
}

// manifest binds one artifact directory together: the format version,
// the product kind, the epoch and mode every blob must agree on, the
// published parameter bundle, the shard plan, and each blob's sealed
// content hash and tree fingerprint. Its own trailing self-hash is the
// artifact's content hash — the identity /params advertises.
type manifest struct {
	kind          Kind
	epoch         uint64
	mode          verify.Mode
	verifierBytes []byte
	template      funcs.Template
	plan          shard.Plan
	fileHashes    []hashing.Digest
	fingerprints  []hashing.Digest
	hash          hashing.Digest // self-hash = artifact content hash
}

// encodeManifest serializes and seals a manifest, returning the bytes
// and the artifact content hash.
func encodeManifest(m *manifest) ([]byte, hashing.Digest) {
	w := &codec.Writer{Buf: make([]byte, 0, 1<<10)}
	w.Buf = append(w.Buf, magicManifest[:]...)
	w.U32(formatVersion)
	w.U8(uint8(m.kind))
	w.U64(m.epoch)
	w.U8(uint8(m.mode))
	w.Bytes(m.verifierBytes)
	w.Bytes([]byte(m.template.Name))
	w.U32(uint32(len(m.template.CoefAttrs)))
	for _, a := range m.template.CoefAttrs {
		w.I32(a)
	}
	w.I32(m.template.BiasAttr)
	w.F64(verify.SemTol)
	writeBox(w, m.plan.Domain)
	w.U32(uint32(m.plan.Axis))
	w.U32(uint32(len(m.plan.Cuts)))
	writeF64s(w, m.plan.Cuts)
	w.U32(uint32(len(m.fileHashes)))
	for i := range m.fileHashes {
		w.Buf = append(w.Buf, m.fileHashes[i][:]...)
		w.Buf = append(w.Buf, m.fingerprints[i][:]...)
	}
	buf, h := seal(w)
	m.hash = h
	return buf, h
}

// decodeManifest parses and verifies a manifest file.
func decodeManifest(data []byte) (*manifest, error) {
	if len(data) < len(magicManifest) {
		return nil, fmt.Errorf("%w: %d-byte file", ErrTruncated, len(data))
	}
	if [4]byte(data[:4]) != magicManifest {
		return nil, fmt.Errorf("%w: %q is not an artifact manifest", ErrBadMagic, data[:4])
	}
	r := &codec.Reader{Buf: data[4:]}
	if v := r.U32("version"); r.Err() == nil && v != formatVersion {
		return nil, fmt.Errorf("%w: manifest version %d (want %d)", ErrVersion, v, formatVersion)
	}
	m := &manifest{}
	kind := r.U8("kind")
	if kind != uint8(KindTree) && kind != uint8(KindSet) {
		r.Corrupt("unknown artifact kind %d", kind)
	}
	m.kind = Kind(kind)
	m.epoch = r.U64("epoch")
	mode := r.U8("mode")
	if mode > uint8(verify.MultiSignature) {
		r.Corrupt("unknown mode %d", mode)
	}
	m.mode = verify.Mode(mode)
	m.verifierBytes = r.Bytes("verifier")
	m.template.Name = string(r.Bytes("template name"))
	nc := r.Count("template variable", 4)
	m.template.CoefAttrs = make([]int, nc)
	for i := range m.template.CoefAttrs {
		m.template.CoefAttrs[i] = r.I32("template attribute")
	}
	m.template.BiasAttr = r.I32("template bias")
	if tol := r.F64("semantic tolerance"); r.Err() == nil && tol != verify.SemTol {
		r.Corrupt("semantic tolerance %v (always %v)", tol, verify.SemTol)
	}
	domain := readBox(r, "plan domain")
	axis := r.U32("plan axis")
	if axis >= uint32(domain.Dim()) {
		r.Corrupt("plan axis %d outside %d dimensions", axis, domain.Dim())
	}
	cuts := readF64s(r, r.Count("plan cut", 8), "plan cuts")
	if r.Err() != nil {
		return nil, r.Err()
	}
	plan, err := shard.NewPlanCuts(domain, int(axis), cuts)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	m.plan = plan
	k := r.Count("shard hash", 64)
	if k < 1 || (m.kind == KindTree && k != 1) || (m.kind == KindSet && k != plan.K()) {
		r.Corrupt("%d blob hashes for a %s artifact with a %d-shard plan", k, m.kind, plan.K())
	}
	m.fileHashes = make([]hashing.Digest, k)
	m.fingerprints = make([]hashing.Digest, k)
	for i := 0; i < k; i++ {
		m.fileHashes[i] = readDigest(r, "blob hash")
		m.fingerprints[i] = readDigest(r, "fingerprint")
	}
	want := readDigest(r, "content hash")
	if err := r.Done(); err != nil {
		return nil, err
	}
	m.hash = hashing.Digest(sha256.Sum256(data[:len(data)-len(want)]))
	if m.hash != want {
		return nil, fmt.Errorf("%w: manifest content hash mismatch", ErrCorrupt)
	}
	return m, nil
}

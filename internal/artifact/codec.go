package artifact

import (
	"crypto/sha256"
	"fmt"
	"math"
	"sync"

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
// Bump it on any layout or digest-rule change; Open refuses versions it
// does not know. Version 2 put the record index in FMH leaf rows
// (version 1 leaves named no record, so a version-1 forest cannot serve);
// version 3 dropped the tree blob's flags byte and the per-subdomain
// permutation rows it announced — the leaves are the only copy of the
// order; version 4 dropped the sweep plan, owner state no server reads;
// version 5 hashes each leaf once, H(TagLeaf | enc(r)), which no
// version-4 forest serves.
const formatVersion = 5

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

// encodeBody serializes one built tree's serve-state into a blob, all
// but the sealed trailer, which Save appends as it writes the file.
// The FMH forest is the tree's row table as it is held in memory
// (mhtree.Forest): children before parents, every list's rows appended
// after its left neighbour's, sharing what the lists share, so the file
// is O(forest), not O(S·n). The IMH tree is a post-order table. shardIdx
// is the tree's position in a sharded set, or build.ShardNone. The blob
// is one allocation of its exact sealed length, the trailer's room
// reserved (TestEncodeTreeIsOneExactAllocation).
func encodeBody(s core.Snapshot, shardIdx int) []byte {
	nf := s.Forest.Len()
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

	// The forest rows, then each subdomain's root row.
	w.U32(uint32(nf))
	w.Buf = append(w.Buf, s.Forest.Rows()...)
	w.U32(uint32(len(s.Subs)))
	for _, si := range s.Subs {
		w.U32(si.List.Row)
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
	return w.Buf
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

// sizeTree is the sealed length of encodeBody(s, …) for a forest of nf
// rows and an IMH table of isize bytes, field for field in encodeBody's
// order.
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
const forestRow = mhtree.RowSize

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
	hash  hashing.Digest // the sealed trailer, equal to the content's SHA-256
}

// decodeTree parses a tree blob: parseTree's structural pass while a
// second goroutine hashes the sealed content, then the sealed trailer's
// check, so a file that parses but was bit-flipped is refused as
// ErrCorrupt by content hash. The hash joins before decodeTree returns on
// any path: a caller may unmap data as soon as it has.
func decodeTree(data []byte) (*decodedTree, error) {
	sum := sumAside(data[:max(0, len(data)-hashing.Size)])
	d, err := parseTree(data)
	if h := sum(); err == nil && h != d.hash {
		return nil, fmt.Errorf("%w: tree blob content hash mismatch", ErrCorrupt)
	}
	return d, err
}

// sumAside starts the SHA-256 of b on a second goroutine and returns the
// wait for it, which may be called again.
func sumAside(b []byte) func() hashing.Digest {
	c := make(chan hashing.Digest, 1)
	go func() { c <- sha256.Sum256(b) }()
	return sync.OnceValue(func() hashing.Digest { return <-c })
}

// parseTree parses a tree blob's structure. It validates every
// count, index and cross-reference (children before parents, leaf ids
// unique and in range, node widths consistent, every list's leaves
// naming records of the table between two sentinels) so that no accepted
// structure can make the serving tree index out of bounds, and reads the
// sealed trailer into hash unchecked. Variable-length fields alias data
// — on a memory-mapped file the signatures, inequality encodings and
// record payloads are served straight out of the map.
func parseTree(data []byte) (*decodedTree, error) {
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
	// Every record's attributes in one slab: a table's records all have
	// the schema's arity. Each record's slice is cut at its own end, so
	// an append to it copies instead of overwriting the next record's.
	// The slab grows past its first array only on input too short to
	// hold them, which fails below.
	slab := make([]float64, 0, min(uint64(n)*uint64(ncols), uint64(len(r.Buf)/8)))
	for i := range recs {
		recs[i].ID = r.U64("record id")
		if k := r.Count("attribute", 8); r.Err() == nil && k != ncols {
			r.Corrupt("record %d has %d attributes, schema wants %d", i, k, ncols)
		}
		if r.Err() != nil {
			return nil, r.Err()
		}
		for range ncols {
			slab = append(slab, r.F64("attributes"))
		}
		recs[i].Attrs = slab[len(slab)-ncols : len(slab) : len(slab)]
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

	// FMH forest: copied out of the input once and checked on the copy —
	// a blob is a shared map, and a rewrite must not move a checked index.
	nf := r.Count("fmh node", forestRow)
	rows := append([]byte(nil), r.Take(nf*forestRow, "fmh forest")...)
	if r.Err() != nil {
		return nil, r.Err()
	}
	forest := mhtree.FromRows(rows)
	spans := make([]leafSpan, nf)
	for i := range spans {
		l, rr := forest.Children(uint32(i))
		wdt := uint32(forest.Width(uint32(i)))
		if uint64(wdt) > uint64(n)+2 || wdt > math.MaxInt32 {
			r.Corrupt("fmh node %d has width %d for %d records", i, wdt, n)
			return nil, r.Err()
		}
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
				spans[i] = spanRecords
			}
		case rr == nilIndex:
			r.Corrupt("fmh node %d has one child", i)
		case uint64(l) >= uint64(i) || uint64(rr) >= uint64(i):
			r.Corrupt("fmh node %d references a later node", i)
		default:
			if int64(wdt) != int64(forest.Width(l))+int64(forest.Width(rr)) || forest.Width(l) != verify.LeftWidth(int(wdt)) {
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
	infos := make([]core.SubInfo, ns)
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
		if forest.Width(ri) != n+2 {
			r.Corrupt("subdomain %d list covers %d leaves for %d records", i, forest.Width(ri), n)
			return nil, r.Err()
		}
		if spans[ri] != spanList {
			r.Corrupt("subdomain %d list is not n records between two sentinels", i)
			return nil, r.Err()
		}
		infos[i].List = fmh.List{N: n, Forest: forest, Row: ri}
		subs[i] = &infos[i]
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
	ints := make([]itree.Intersection, nt) // one slab: internal nodes point into it
	// Every internal node's coefficients in one slab, bounded by the bytes
	// left, as the attributes' is: each takes 8 bytes of its encoding. A
	// node past a forged slab's end decodes into its own array.
	coefs := make([]float64, 0, min(uint64(max(nt-ns, 0))*uint64(dim), uint64(len(r.Buf)/8)))
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
			end := min(len(coefs)+dim, cap(coefs))
			hp, err := geometry.DecodeHyperplane(enc, coefs[len(coefs):len(coefs):end])
			if err != nil || len(hp.C) != dim {
				r.Corrupt("imh node %d hyperplane encoding", i)
				break
			}
			coefs = coefs[:end]
			ints[i] = itree.Intersection{I: int(ii), J: int(jj), H: hp}
			inodes[i].Int = &ints[i]
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
	d.Subs, d.Forest = subs, forest

	d.RootSig = r.Bytes("root signature")

	// Sealed trailer: the content hash over everything before it.
	d.hash = readDigest(r, "content hash")
	if err := r.Done(); err != nil {
		return nil, err
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

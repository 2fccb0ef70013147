package wire

import (
	"fmt"

	"aqverify/internal/codec"
	"aqverify/internal/geometry"
	"aqverify/internal/hashing"
	"aqverify/internal/query"
	"aqverify/internal/record"
	"aqverify/internal/verify"
)

// magicIFMH opens an answer frame. 0xA2, the retired mesh frame's
// magic, is reserved and never reused.
const magicIFMH = 0xA1

// EncodeQuery serializes one query — a query-batch item's payload and
// the cache's key — allocated once, at its length.
func EncodeQuery(q query.Query) []byte {
	w := &codec.Writer{Buf: make([]byte, 0, sizeQuery(q))}
	encodeQuery(w, q)
	return w.Buf
}

// DecodeQuery parses a query serialized by EncodeQuery.
func DecodeQuery(b []byte) (query.Query, error) {
	r := &codec.Reader{Buf: b}
	q := decodeQuery(r)
	if err := r.Done(); err != nil {
		return query.Query{}, err
	}
	return q, nil
}

// sizeQuery is the length encodeQuery writes.
func sizeQuery(q query.Query) int { return 1 + 4 + 8*len(q.X) + 4 + 3*8 }

func encodeQuery(w *codec.Writer, q query.Query) {
	w.U8(uint8(q.Kind))
	w.U32(uint32(len(q.X)))
	for _, v := range q.X {
		w.F64(v)
	}
	w.U32(uint32(q.K))
	w.F64(q.L)
	w.F64(q.U)
	w.F64(q.Y)
}

func decodeQuery(r *codec.Reader) query.Query {
	var q query.Query
	q.Kind = query.Kind(r.U8("query kind"))
	n := r.Count("query vars", 8)
	q.X = make(geometry.Point, n)
	for i := range q.X {
		q.X[i] = r.F64("query var")
	}
	q.K = r.Nonneg("query k")
	q.L = r.F64("query l")
	q.U = r.F64("query u")
	q.Y = r.F64("query y")
	return q
}

func encodeRecords(w *codec.Writer, recs []record.Record) {
	w.U32(uint32(len(recs)))
	for _, rec := range recs {
		at := w.Begin()
		w.Buf = rec.Encode(w.Buf)
		w.End(at)
	}
}

func sizeRecords(recs []record.Record) int {
	n := 4
	for _, rec := range recs {
		n += 4 + rec.EncodedLen()
	}
	return n
}

// decodeRecords gives every record's Attrs one array, sized by a first pass
// over the attribute counts (each bounded by the field it was read from).
func decodeRecords(r *codec.Reader) []record.Record {
	n := r.Count("records", 5)
	total := 0
	for i, scan := 0, *r; i < n; i++ {
		total += record.AttrCount(scan.Bytes("record"))
	}
	attrs := make([]float64, total)
	out := make([]record.Record, 0, n)
	for i := 0; i < n; i++ {
		b := r.Bytes("record")
		if r.Err() != nil {
			return nil
		}
		rec, rest, err := record.DecodeInto(attrs, b)
		if err != nil || len(rest) != 0 {
			r.Corrupt("record %d malformed", i)
			return nil
		}
		attrs = attrs[len(rec.Attrs):]
		out = append(out, rec)
	}
	return out
}

func encodeBoundary(w *codec.Writer, b verify.Boundary) {
	w.U8(uint8(b.Kind))
	if b.Kind == verify.BoundaryRecord {
		at := w.Begin()
		w.Buf = b.Rec.Encode(w.Buf)
		w.End(at)
	}
}

func sizeBoundary(b verify.Boundary) int {
	if b.Kind == verify.BoundaryRecord {
		return 1 + 4 + b.Rec.EncodedLen()
	}
	return 1
}

func decodeBoundary(r *codec.Reader) verify.Boundary {
	var b verify.Boundary
	b.Kind = verify.BoundaryKind(r.U8("boundary kind"))
	if b.Kind == verify.BoundaryRecord {
		raw := r.Bytes("boundary record")
		if r.Err() != nil {
			return b
		}
		rec, rest, err := record.Decode(raw)
		if err != nil || len(rest) != 0 {
			r.Corrupt("boundary record malformed")
			return b
		}
		b.Rec = rec
	}
	return b
}

func encodeDigests(w *codec.Writer, ds []hashing.Digest) {
	w.U32(uint32(len(ds)))
	for _, d := range ds {
		w.Buf = append(w.Buf, d[:]...)
	}
}

func decodeDigests(r *codec.Reader) []hashing.Digest {
	out := make([]hashing.Digest, r.Count("digests", hashing.Size))
	for i := range out {
		copy(out[i][:], r.Take(hashing.Size, "digest"))
	}
	if r.Err() != nil {
		return nil
	}
	return out
}

// EncodeIFMH serializes an IFMH answer. Its length is the communication
// cost of the one-signature / multi-signature approaches. The frame is
// allocated once at its exact length (sizeIFMH) and every part — records,
// boundaries, hyperplanes, inequalities — is appended straight into it,
// its length prefix filled in afterwards.
func EncodeIFMH(a *verify.Answer) []byte {
	w := &codec.Writer{Buf: make([]byte, 0, sizeIFMH(a))}
	w.U8(magicIFMH)
	encodeQuery(w, a.Query)
	encodeRecords(w, a.Records)
	w.U8(uint8(a.VO.Mode))
	w.U32(uint32(a.VO.ListLen))
	w.U32(uint32(a.VO.Start))
	encodeBoundary(w, a.VO.Left)
	encodeBoundary(w, a.VO.Right)
	encodeDigests(w, a.VO.FProof.Hashes)
	w.U32(uint32(len(a.VO.Path)))
	for _, st := range a.VO.Path {
		at := w.Begin()
		w.Buf = st.Hp.Encode(w.Buf)
		w.End(at)
		w.Bool(st.TookAbove)
		w.Buf = append(w.Buf, st.Sibling[:]...)
	}
	at := w.Begin()
	w.Buf = geometry.EncodeHalfspaces(w.Buf, a.VO.Ineqs)
	w.End(at)
	w.Bytes(a.VO.Signature)
	return w.Buf
}

// sizeIFMH is len(EncodeIFMH(a)), field for field in EncodeIFMH's order
// (TestEncodeIFMHIsOneExactAllocation holds the two together).
func sizeIFMH(a *verify.Answer) int {
	n := 1 + sizeQuery(a.Query) + sizeRecords(a.Records)
	n += 1 + 4 + 4 + sizeBoundary(a.VO.Left) + sizeBoundary(a.VO.Right)
	n += 4 + hashing.Size*len(a.VO.FProof.Hashes)
	n += 4
	for _, st := range a.VO.Path {
		n += 4 + st.Hp.EncodedLen() + 1 + hashing.Size
	}
	n += 4 + geometry.HalfspacesEncodedLen(a.VO.Ineqs)
	return n + 4 + len(a.VO.Signature)
}

// DecodeIFMH parses an IFMH answer.
func DecodeIFMH(b []byte) (*verify.Answer, error) {
	r := &codec.Reader{Buf: b}
	if r.U8("magic") != magicIFMH {
		return nil, fmt.Errorf("wire: not an IFMH answer")
	}
	a := &verify.Answer{}
	a.Query = decodeQuery(r)
	a.Records = decodeRecords(r)
	a.VO.Mode = verify.Mode(r.U8("mode"))
	a.VO.ListLen = r.Nonneg("list len")
	a.VO.Start = r.Nonneg("start")
	a.VO.Left = decodeBoundary(r)
	a.VO.Right = decodeBoundary(r)
	a.VO.FProof.Hashes = decodeDigests(r)
	np := r.Count("path", 1+hashing.Size)
	for i := 0; i < np; i++ {
		var st verify.PathStep
		hp, err := geometry.DecodeHyperplane(r.Bytes("path hyperplane"), nil)
		if err != nil {
			r.Corrupt("path step %d hyperplane: %v", i, err)
		}
		st.Hp = hp
		st.TookAbove = r.Bool("path dir")
		copy(st.Sibling[:], r.Take(hashing.Size, "path sibling"))
		a.VO.Path = append(a.VO.Path, st)
	}
	// The field always carries a halfspace-list encoding (a zero count
	// for the one-signature mode); rejecting anything shorter keeps the
	// codec canonical — every accepted answer re-encodes to identical
	// bytes.
	hss, err := geometry.DecodeHalfspaces(r.Bytes("ineqs"))
	if err != nil {
		r.Corrupt("inequality set: %v", err)
	}
	if len(hss) > 0 {
		a.VO.Ineqs = hss
	}
	a.VO.Signature = append([]byte(nil), r.Bytes("signature")...) // a copy: an answer never aliases its input
	if err := r.Done(); err != nil {
		return nil, err
	}
	return a, nil
}

// VOSizeIFMH returns the byte size of the verification object alone
// (excluding the query echo and the result records), which is the
// paper's Fig 8 metric.
func VOSizeIFMH(a *verify.Answer) int {
	return sizeIFMH(a) - sizeQuery(a.Query) - sizeRecords(a.Records) - 1
}

package wire

import (
	"fmt"

	"aqverify/internal/core"
	"aqverify/internal/geometry"
	"aqverify/internal/hashing"
	"aqverify/internal/mesh"
	"aqverify/internal/query"
	"aqverify/internal/record"
)

// Format magic bytes distinguishing the two answer encodings.
const (
	magicIFMH = 0xA1
	magicMesh = 0xA2
)

// EncodeQuery serializes one query — a query-batch item's payload and
// the cache's key — allocated once, at its length.
func EncodeQuery(q query.Query) []byte {
	w := &writer{buf: make([]byte, 0, sizeQuery(q))}
	encodeQuery(w, q)
	return w.buf
}

// DecodeQuery parses a query serialized by EncodeQuery.
func DecodeQuery(b []byte) (query.Query, error) {
	r := &reader{buf: b}
	q := decodeQuery(r)
	if err := r.done(); err != nil {
		return query.Query{}, err
	}
	return q, nil
}

// sizeQuery is the length encodeQuery writes.
func sizeQuery(q query.Query) int { return 1 + 4 + 8*len(q.X) + 4 + 3*8 }

func encodeQuery(w *writer, q query.Query) {
	w.u8(uint8(q.Kind))
	w.u32(uint32(len(q.X)))
	for _, v := range q.X {
		w.f64(v)
	}
	w.u32(uint32(q.K))
	w.f64(q.L)
	w.f64(q.U)
	w.f64(q.Y)
}

func decodeQuery(r *reader) query.Query {
	var q query.Query
	q.Kind = query.Kind(r.u8("query kind"))
	n := r.count("query vars", 8)
	q.X = make(geometry.Point, n)
	for i := range q.X {
		q.X[i] = r.f64("query var")
	}
	q.K = r.nonneg("query k")
	q.L = r.f64("query l")
	q.U = r.f64("query u")
	q.Y = r.f64("query y")
	return q
}

func encodeRecords(w *writer, recs []record.Record) {
	w.u32(uint32(len(recs)))
	for _, rec := range recs {
		at := w.begin()
		w.buf = rec.Encode(w.buf)
		w.end(at)
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
func decodeRecords(r *reader) []record.Record {
	n := r.count("records", 5)
	total := 0
	for i, scan := 0, (reader{buf: r.buf}); i < n; i++ {
		total += record.AttrCount(scan.view("record"))
	}
	attrs := make([]float64, total)
	out := make([]record.Record, 0, n)
	for i := 0; i < n; i++ {
		b := r.view("record")
		if r.err != nil {
			return nil
		}
		rec, rest, err := record.DecodeInto(attrs, b)
		if err != nil || len(rest) != 0 {
			r.err = fmt.Errorf("wire: record %d: malformed", i)
			return nil
		}
		attrs = attrs[len(rec.Attrs):]
		out = append(out, rec)
	}
	return out
}

func encodeBoundary(w *writer, b core.Boundary) {
	w.u8(uint8(b.Kind))
	if b.Kind == core.BoundaryRecord {
		at := w.begin()
		w.buf = b.Rec.Encode(w.buf)
		w.end(at)
	}
}

func sizeBoundary(b core.Boundary) int {
	if b.Kind == core.BoundaryRecord {
		return 1 + 4 + b.Rec.EncodedLen()
	}
	return 1
}

func decodeBoundary(r *reader) core.Boundary {
	var b core.Boundary
	b.Kind = core.BoundaryKind(r.u8("boundary kind"))
	if b.Kind == core.BoundaryRecord {
		raw := r.view("boundary record")
		if r.err != nil {
			return b
		}
		rec, rest, err := record.Decode(raw)
		if err != nil || len(rest) != 0 {
			r.err = fmt.Errorf("wire: boundary record malformed")
			return b
		}
		b.Rec = rec
	}
	return b
}

func encodeDigests(w *writer, ds []hashing.Digest) {
	w.u32(uint32(len(ds)))
	for _, d := range ds {
		w.buf = append(w.buf, d[:]...)
	}
}

func decodeDigests(r *reader) []hashing.Digest {
	out := make([]hashing.Digest, r.count("digests", hashing.Size))
	for i := range out {
		copy(out[i][:], r.take(hashing.Size, "digest"))
	}
	if r.err != nil {
		return nil
	}
	return out
}

// EncodeIFMH serializes an IFMH answer. Its length is the communication
// cost of the one-signature / multi-signature approaches. The frame is
// allocated once at its exact length (sizeIFMH) and every part — records,
// boundaries, hyperplanes, inequalities — is appended straight into it,
// its length prefix filled in afterwards.
func EncodeIFMH(a *core.Answer) []byte {
	w := &writer{buf: make([]byte, 0, sizeIFMH(a))}
	w.u8(magicIFMH)
	encodeQuery(w, a.Query)
	encodeRecords(w, a.Records)
	w.u8(uint8(a.VO.Mode))
	w.u32(uint32(a.VO.ListLen))
	w.u32(uint32(a.VO.Start))
	encodeBoundary(w, a.VO.Left)
	encodeBoundary(w, a.VO.Right)
	encodeDigests(w, a.VO.FProof.Hashes)
	w.u32(uint32(len(a.VO.Path)))
	for _, st := range a.VO.Path {
		at := w.begin()
		w.buf = st.Hp.Encode(w.buf)
		w.end(at)
		w.bool(st.TookAbove)
		w.buf = append(w.buf, st.Sibling[:]...)
	}
	at := w.begin()
	w.buf = geometry.EncodeHalfspaces(w.buf, a.VO.Ineqs)
	w.end(at)
	w.bytes(a.VO.Signature)
	return w.buf
}

// sizeIFMH is len(EncodeIFMH(a)), field for field in EncodeIFMH's order
// (TestEncodeIFMHIsOneExactAllocation holds the two together).
func sizeIFMH(a *core.Answer) int {
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
func DecodeIFMH(b []byte) (*core.Answer, error) {
	r := &reader{buf: b}
	if r.u8("magic") != magicIFMH {
		return nil, fmt.Errorf("wire: not an IFMH answer")
	}
	a := &core.Answer{}
	a.Query = decodeQuery(r)
	a.Records = decodeRecords(r)
	a.VO.Mode = core.Mode(r.u8("mode"))
	a.VO.ListLen = r.nonneg("list len")
	a.VO.Start = r.nonneg("start")
	a.VO.Left = decodeBoundary(r)
	a.VO.Right = decodeBoundary(r)
	a.VO.FProof.Hashes = decodeDigests(r)
	np := r.count("path", 1+hashing.Size)
	for i := 0; i < np; i++ {
		var st core.PathStep
		raw := r.view("path hyperplane")
		if r.err == nil {
			hp, rest, err := geometry.DecodeHyperplane(raw)
			if err != nil || len(rest) != 0 {
				r.err = fmt.Errorf("wire: path step %d hyperplane malformed", i)
			}
			st.Hp = hp
		}
		st.TookAbove = r.bool("path dir")
		copy(st.Sibling[:], r.take(hashing.Size, "path sibling"))
		a.VO.Path = append(a.VO.Path, st)
	}
	rawIneqs := r.view("ineqs")
	if r.err == nil {
		// The field always carries a halfspace-list encoding (a zero
		// count for the one-signature mode); rejecting anything shorter
		// keeps the codec canonical — every accepted answer re-encodes
		// to identical bytes.
		hss, rest, err := geometry.DecodeHalfspaces(rawIneqs)
		if err != nil || len(rest) != 0 {
			r.err = fmt.Errorf("wire: inequality set malformed")
		}
		if len(hss) > 0 {
			a.VO.Ineqs = hss
		}
	}
	a.VO.Signature = append([]byte(nil), r.view("signature")...) // a copy: an answer never aliases its input
	if err := r.done(); err != nil {
		return nil, err
	}
	return a, nil
}

// EncodeMesh serializes a signature-mesh answer.
func EncodeMesh(a *mesh.Answer) []byte {
	w := &writer{}
	w.u8(magicMesh)
	encodeQuery(w, a.Query)
	encodeRecords(w, a.Records)
	w.u32(uint32(a.VO.ListLen))
	encodeBoundary(w, a.VO.Left)
	encodeBoundary(w, a.VO.Right)
	w.u32(uint32(len(a.VO.Pairs)))
	for _, p := range a.VO.Pairs {
		w.f64(p.Lo)
		w.f64(p.Hi)
		w.bytes(p.Sig)
	}
	return w.buf
}

// DecodeMesh parses a signature-mesh answer.
func DecodeMesh(b []byte) (*mesh.Answer, error) {
	r := &reader{buf: b}
	if r.u8("magic") != magicMesh {
		return nil, fmt.Errorf("wire: not a mesh answer")
	}
	a := &mesh.Answer{}
	a.Query = decodeQuery(r)
	a.Records = decodeRecords(r)
	a.VO.ListLen = r.nonneg("list len")
	a.VO.Left = decodeBoundary(r)
	a.VO.Right = decodeBoundary(r)
	np := r.count("pairs", 20)
	for i := 0; i < np; i++ {
		var p mesh.PairProof
		p.Lo = r.f64("pair lo")
		p.Hi = r.f64("pair hi")
		p.Sig = append([]byte(nil), r.view("pair sig")...)
		a.VO.Pairs = append(a.VO.Pairs, p)
	}
	if err := r.done(); err != nil {
		return nil, err
	}
	return a, nil
}

// VOSizeIFMH returns the byte size of the verification object alone
// (excluding the query echo and the result records), which is the
// paper's Fig 8 metric.
func VOSizeIFMH(a *core.Answer) int {
	return sizeIFMH(a) - sizeQuery(a.Query) - sizeRecords(a.Records) - 1
}

// VOSizeMesh returns the mesh verification object's byte size.
func VOSizeMesh(a *mesh.Answer) int {
	return len(EncodeMesh(a)) - sizeQuery(a.Query) - sizeRecords(a.Records) - 1
}

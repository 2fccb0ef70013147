// Package record models the outsourced relational data: records with
// numeric scoring attributes plus an opaque payload, a schema describing
// the columns, and the canonical byte encoding that every hash in the
// verification structures is computed over.
package record

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"aqverify/internal/linalg"
)

// Record is one row of the outsourced table. Attrs are the numeric
// attributes consumed by utility-function templates (GPA, awards, papers
// in the paper's example); Payload carries any remaining columns opaquely
// so that soundness covers the whole row, not just the scored part.
type Record struct {
	ID      uint64
	Attrs   []float64
	Payload []byte
}

// Validate checks that the record is usable: attributes present and
// finite. Non-finite attributes would make scoring and domain geometry
// undefined.
func (r Record) Validate() error {
	if len(r.Attrs) == 0 {
		return fmt.Errorf("record %d: no attributes", r.ID)
	}
	if !linalg.AllFinite(r.Attrs) {
		return fmt.Errorf("record %d: non-finite attribute", r.ID)
	}
	return nil
}

// Encode appends the record's canonical byte encoding to dst. The layout
// is fixed (big-endian ID, attribute count, IEEE-754 bit patterns, payload
// length, payload) so owner and client always hash identical bytes.
func (r Record) Encode(dst []byte) []byte {
	// One exact reservation: this runs per leaf hash on all three parties.
	dst = slices.Grow(dst, r.EncodedLen())
	dst = binary.BigEndian.AppendUint64(dst, r.ID)
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(r.Attrs)))
	for _, a := range r.Attrs {
		dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(a))
	}
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(r.Payload)))
	return append(dst, r.Payload...)
}

// EncodedLen returns len(r.Encode(nil)).
func (r Record) EncodedLen() int { return 16 + 8*len(r.Attrs) + len(r.Payload) }

// Decode parses a record written by Encode, returning the remaining bytes.
func Decode(src []byte) (Record, []byte, error) {
	return DecodeInto(make([]float64, AttrCount(src)), src)
}

// AttrCount is the attribute count of the record encoded at the front of
// src, 0 unless src can hold that many: what a DecodeInto needs room for.
func AttrCount(src []byte) int {
	if len(src) < 16 {
		return 0
	}
	n := binary.BigEndian.Uint32(src[8:12])
	if uint64(n) > uint64(len(src)-16)/8 {
		return 0
	}
	return int(n)
}

// DecodeInto is Decode with Attrs stored at the front of attrs, cap-limited
// so an append cannot reach what follows. Nothing decoded aliases src.
func DecodeInto(attrs []float64, src []byte) (Record, []byte, error) {
	if len(src) < 12 {
		return Record{}, nil, fmt.Errorf("record: encoding truncated (len %d)", len(src))
	}
	id := binary.BigEndian.Uint64(src[:8])
	na := int(binary.BigEndian.Uint32(src[8:12]))
	if na < 0 || na > 1<<20 || len(src)-12 < 8*na+4 || len(attrs) < na {
		return Record{}, nil, fmt.Errorf("record %d: truncated attributes (want %d, room for %d)", id, na, len(attrs))
	}
	r := Record{ID: id, Attrs: attrs[:na:na]}
	src = src[12:]
	for i := range r.Attrs {
		r.Attrs[i] = math.Float64frombits(binary.BigEndian.Uint64(src[:8]))
		src = src[8:]
	}
	np := int(binary.BigEndian.Uint32(src[:4]))
	src = src[4:]
	if np < 0 || len(src) < np {
		return Record{}, nil, fmt.Errorf("record %d: truncated payload (want %d bytes)", r.ID, np)
	}
	if np > 0 {
		r.Payload = append([]byte(nil), src[:np]...)
	}
	return r, src[np:], nil
}

// Equal reports whether two records are byte-for-byte identical under the
// canonical encoding (bit-level attribute comparison, so NaN payload bits
// and -0 vs +0 are distinguished just as the hashes distinguish them).
func (r Record) Equal(other Record) bool {
	if r.ID != other.ID || len(r.Attrs) != len(other.Attrs) || len(r.Payload) != len(other.Payload) {
		return false
	}
	for i := range r.Attrs {
		if math.Float64bits(r.Attrs[i]) != math.Float64bits(other.Attrs[i]) {
			return false
		}
	}
	for i := range r.Payload {
		if r.Payload[i] != other.Payload[i] {
			return false
		}
	}
	return true
}

// Clone returns a deep copy of the record.
func (r Record) Clone() Record {
	out := Record{ID: r.ID}
	out.Attrs = append([]float64(nil), r.Attrs...)
	if r.Payload != nil {
		out.Payload = append([]byte(nil), r.Payload...)
	}
	return out
}

// Column describes one attribute of a schema.
type Column struct {
	Name string
	// Description is free-form documentation (units, semantics).
	Description string
}

// Schema names the scored attributes of a table, in order. The schema is
// shared out of band between owner and users; it determines how utility
// function templates map attributes to function coefficients.
type Schema struct {
	Name    string
	Columns []Column
}

// Arity returns the number of scored attributes.
func (s Schema) Arity() int { return len(s.Columns) }

// Table is the outsourced database: a schema plus records.
type Table struct {
	Schema  Schema
	Records []Record
}

// NewTable validates records against the schema and returns a table.
// Every record must have exactly the schema's arity and a unique ID.
func NewTable(schema Schema, records []Record) (Table, error) {
	if schema.Arity() == 0 {
		return Table{}, fmt.Errorf("record: schema %q has no columns", schema.Name)
	}
	seen := make(map[uint64]bool, len(records))
	for i, r := range records {
		if err := r.Validate(); err != nil {
			return Table{}, fmt.Errorf("record: row %d: %w", i, err)
		}
		if len(r.Attrs) != schema.Arity() {
			return Table{}, fmt.Errorf("record: row %d has %d attributes, schema %q wants %d",
				i, len(r.Attrs), schema.Name, schema.Arity())
		}
		if seen[r.ID] {
			return Table{}, fmt.Errorf("record: duplicate ID %d", r.ID)
		}
		seen[r.ID] = true
	}
	return Table{Schema: schema, Records: records}, nil
}

// Len returns the record count.
func (t Table) Len() int { return len(t.Records) }

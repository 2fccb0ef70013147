package record

import (
	"math"
	"testing"
	"testing/quick"
)

func TestEncodeDecodeRoundTrip(t *testing.T) {
	tests := []Record{
		{ID: 1, Attrs: []float64{1.5, -2.25, 0}},
		{ID: 0, Attrs: []float64{0}},
		{ID: math.MaxUint64, Attrs: []float64{math.MaxFloat64, math.SmallestNonzeroFloat64}, Payload: []byte("hello")},
		{ID: 7, Attrs: []float64{3.14}, Payload: []byte{}},
	}
	for _, r := range tests {
		enc := r.Encode(nil)
		got, rest, err := Decode(enc)
		if err != nil {
			t.Fatalf("Decode(%+v): %v", r, err)
		}
		if len(rest) != 0 {
			t.Errorf("Decode left %d bytes", len(rest))
		}
		if !got.Equal(r) {
			t.Errorf("round trip changed record: %+v -> %+v", r, got)
		}
	}
}

func TestEncodeDeterministic(t *testing.T) {
	r := Record{ID: 42, Attrs: []float64{1, 2, 3}, Payload: []byte("x")}
	a := r.Encode(nil)
	b := r.Encode(nil)
	if string(a) != string(b) {
		t.Error("Encode not deterministic")
	}
}

func TestDecodeTruncated(t *testing.T) {
	r := Record{ID: 9, Attrs: []float64{1, 2}, Payload: []byte("abc")}
	enc := r.Encode(nil)
	for cut := 0; cut < len(enc); cut++ {
		if _, _, err := Decode(enc[:cut]); err == nil {
			t.Fatalf("Decode accepted truncation at %d/%d", cut, len(enc))
		}
	}
}

func TestDecodeQuickRoundTrip(t *testing.T) {
	f := func(id uint64, attrs []float64, payload []byte) bool {
		if len(attrs) == 0 {
			attrs = []float64{0}
		}
		r := Record{ID: id, Attrs: attrs, Payload: payload}
		got, rest, err := Decode(r.Encode(nil))
		return err == nil && len(rest) == 0 && got.Equal(r)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEqualDistinguishesBits(t *testing.T) {
	a := Record{ID: 1, Attrs: []float64{0}}
	b := Record{ID: 1, Attrs: []float64{math.Copysign(0, -1)}}
	if a.Equal(b) {
		t.Error("+0 and -0 must hash (and compare) differently")
	}
	c := Record{ID: 1, Attrs: []float64{0}, Payload: []byte("p")}
	if a.Equal(c) {
		t.Error("payload must participate in equality")
	}
}

func TestValidate(t *testing.T) {
	if err := (Record{ID: 1, Attrs: []float64{1}}).Validate(); err != nil {
		t.Errorf("valid record rejected: %v", err)
	}
	if err := (Record{ID: 1}).Validate(); err == nil {
		t.Error("record without attributes accepted")
	}
	if err := (Record{ID: 1, Attrs: []float64{math.NaN()}}).Validate(); err == nil {
		t.Error("NaN attribute accepted")
	}
}

func TestCloneIndependence(t *testing.T) {
	r := Record{ID: 1, Attrs: []float64{1, 2}, Payload: []byte("ab")}
	c := r.Clone()
	c.Attrs[0] = 99
	c.Payload[0] = 'z'
	if r.Attrs[0] != 1 || r.Payload[0] != 'a' {
		t.Error("Clone shares backing arrays")
	}
}

func testSchema(arity int) Schema {
	cols := make([]Column, arity)
	for i := range cols {
		cols[i] = Column{Name: string(rune('a' + i))}
	}
	return Schema{Name: "test", Columns: cols}
}

func TestNewTable(t *testing.T) {
	s := testSchema(2)
	recs := []Record{
		{ID: 1, Attrs: []float64{1, 2}},
		{ID: 2, Attrs: []float64{3, 4}},
	}
	tbl, err := NewTable(s, recs)
	if err != nil {
		t.Fatalf("NewTable: %v", err)
	}
	if tbl.Len() != 2 {
		t.Errorf("Len = %d", tbl.Len())
	}
}

func TestNewTableRejects(t *testing.T) {
	s := testSchema(2)
	cases := []struct {
		name string
		recs []Record
	}{
		{"wrong arity", []Record{{ID: 1, Attrs: []float64{1}}}},
		{"duplicate id", []Record{{ID: 1, Attrs: []float64{1, 2}}, {ID: 1, Attrs: []float64{3, 4}}}},
		{"nan attr", []Record{{ID: 1, Attrs: []float64{math.NaN(), 0}}}},
	}
	for _, tc := range cases {
		if _, err := NewTable(s, tc.recs); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	if _, err := NewTable(Schema{Name: "empty"}, nil); err == nil {
		t.Error("schema without columns accepted")
	}
}

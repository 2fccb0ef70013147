package codec

import (
	"bytes"
	"errors"
	"math"
	"runtime"
	"testing"
)

// mixed writes one of every primitive, a length-prefixed view and a
// Begin/End field.
func mixed() []byte {
	w := &Writer{}
	w.U8(7)
	w.Bool(true)
	w.U32(0xDEADBEEF)
	w.U64(1 << 40)
	w.F64(-2.5)
	w.I32(-5)
	w.Bytes([]byte("payload"))
	at := w.Begin()
	w.U32(42)
	w.Bool(false)
	w.End(at)
	return w.Buf
}

type decoded struct {
	u8       uint8
	b        bool
	u32      uint32
	u64      uint64
	f64      float64
	i32      int
	view     []byte
	inner    uint32
	innerOff bool
}

func readMixed(r *Reader) decoded {
	var d decoded
	d.u8 = r.U8("u8")
	d.b = r.Bool("bool")
	d.u32 = r.U32("u32")
	d.u64 = r.U64("u64")
	d.f64 = r.F64("f64")
	d.i32 = r.I32("i32")
	d.view = r.Bytes("bytes")
	field := Reader{Buf: r.Bytes("field")}
	d.inner = field.U32("inner u32")
	d.innerOff = field.Bool("inner bool")
	if err := field.Done(); err != nil {
		r.Corrupt("field: %v", err)
	}
	return d
}

func TestRoundTrip(t *testing.T) {
	r := &Reader{Buf: mixed()}
	d := readMixed(r)
	if err := r.Done(); err != nil {
		t.Fatal(err)
	}
	if d.u8 != 7 || !d.b || d.u32 != 0xDEADBEEF || d.u64 != 1<<40 || d.f64 != -2.5 || d.i32 != -5 ||
		string(d.view) != "payload" || d.inner != 42 || d.innerOff {
		t.Fatalf("decoded %+v", d)
	}
}

// TestBeginEndMatchesBytes: a field filled in place between Begin and
// End is byte-for-byte the field Bytes writes from a temporary.
func TestBeginEndMatchesBytes(t *testing.T) {
	content := []byte{1, 2, 3, 4, 5}
	a := &Writer{}
	at := a.Begin()
	a.Buf = append(a.Buf, content...)
	a.End(at)
	b := &Writer{}
	b.Bytes(content)
	if !bytes.Equal(a.Buf, b.Buf) {
		t.Fatalf("Begin/End wrote % x, Bytes % x", a.Buf, b.Buf)
	}
	empty := &Writer{}
	empty.End(empty.Begin())
	if !bytes.Equal(empty.Buf, []byte{0, 0, 0, 0}) {
		t.Fatalf("empty field % x", empty.Buf)
	}
}

// TestTruncationAtEveryCut: every strict prefix of an encoding is
// refused as ErrTruncated, never as anything else and never by a panic.
func TestTruncationAtEveryCut(t *testing.T) {
	enc := mixed()
	for cut := 0; cut < len(enc); cut++ {
		r := &Reader{Buf: enc[:cut]}
		readMixed(r)
		if err := r.Done(); !errors.Is(err, ErrTruncated) {
			t.Fatalf("cut at %d of %d: %v, want ErrTruncated", cut, len(enc), err)
		}
	}
}

func TestTrailingBytesAreCorrupt(t *testing.T) {
	r := &Reader{Buf: append(mixed(), 0)}
	readMixed(r)
	if err := r.Done(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("one trailing byte: %v, want ErrCorrupt", err)
	}
}

// TestForgedCountsCostNothing: four bytes claiming 2^29-1, 2^31 or
// 2^32-1 elements are refused as ErrCorrupt before anything is
// allocated for them. 2^29-1 is the count whose 8*(n+1) wraps to zero
// in a 32-bit int — a fatal out-of-memory on GOARCH=386 when a decoder
// once multiplied before comparing (CI's codec-386 job runs this there).
func TestForgedCountsCostNothing(t *testing.T) {
	for _, count := range []uint32{1<<29 - 1, 1 << 31, math.MaxUint32} {
		w := &Writer{}
		w.U32(count)
		w.F64(0)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		r := &Reader{Buf: w.Buf}
		out := make([]float64, r.Count("coefficient", 8))
		runtime.ReadMemStats(&after)
		if err := r.Err(); !errors.Is(err, ErrCorrupt) || len(out) != 0 {
			t.Fatalf("count %d: %v and %d elements, want ErrCorrupt and none", count, err, len(out))
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
			t.Fatalf("count %d: refusing a 12-byte input allocated %d bytes", count, grew)
		}
	}
	// The bound is the bytes left: one element per min bytes is
	// accepted, and a count that would need more is not.
	w := &Writer{}
	w.U32(2)
	w.F64(1)
	w.F64(2)
	if r := (&Reader{Buf: w.Buf}); r.Count("coefficient", 8) != 2 || r.Err() != nil {
		t.Fatalf("an honest count was refused: %v", r.Err())
	}
}

func TestNonnegRefusesPastMaxInt32(t *testing.T) {
	for _, c := range []struct {
		v  uint32
		ok bool
	}{{0, true}, {math.MaxInt32, true}, {math.MaxInt32 + 1, false}, {math.MaxUint32, false}} {
		w := &Writer{}
		w.U32(c.v)
		r := &Reader{Buf: w.Buf}
		got := r.Nonneg("offset")
		if c.ok && (r.Err() != nil || got != int(c.v)) {
			t.Errorf("%d: got %d, %v", c.v, got, r.Err())
		}
		if !c.ok && (!errors.Is(r.Err(), ErrCorrupt) || got != 0) {
			t.Errorf("%d: got %d, %v, want ErrCorrupt", c.v, got, r.Err())
		}
	}
}

// TestBoolIsCanonical: a bool byte is 0 or 1; any other value would
// decode to a bool that re-encodes differently.
func TestBoolIsCanonical(t *testing.T) {
	for _, b := range []byte{2, 7, 0x80, 0xFF} {
		r := &Reader{Buf: []byte{b}}
		r.Bool("flag")
		if !errors.Is(r.Err(), ErrCorrupt) {
			t.Errorf("bool byte %#x: %v, want ErrCorrupt", b, r.Err())
		}
	}
}

// TestBytesIsACapLimitedView: a variable part aliases the input, and an
// append to it reallocates instead of overwriting the next field.
func TestBytesIsACapLimitedView(t *testing.T) {
	w := &Writer{}
	w.Bytes([]byte{1, 2, 3})
	w.U8(9)
	r := &Reader{Buf: w.Buf}
	v := r.Bytes("view")
	if len(v) != 3 || cap(v) != 3 || &v[0] != &w.Buf[4] {
		t.Fatalf("view len %d cap %d, aliasing %v", len(v), cap(v), &v[0] == &w.Buf[4])
	}
	_ = append(v, 0xEE)
	if next := r.U8("next"); next != 9 || r.Done() != nil {
		t.Fatalf("the field after the view reads %d, %v", next, r.Err())
	}
	// A length past the bytes left is a truncation, not a huge slice.
	forged := &Reader{Buf: []byte{0xFF, 0xFF, 0xFF, 0xFF, 1}}
	if v := forged.Bytes("view"); v != nil || !errors.Is(forged.Err(), ErrTruncated) {
		t.Fatalf("forged length: %d bytes, %v", len(v), forged.Err())
	}
}

// Package codec is the one reader and writer of the module's binary
// formats: the wire frames (internal/wire), the artifact files
// (internal/artifact) and the hyperplane and halfspace encodings inside
// both (internal/geometry). Every field is big-endian and fixed-width,
// every variable part is u32-length-prefixed, and nothing is reflective,
// so each value has exactly one encoding.
//
// The bytes a Reader parses come from a party the reader does not trust
// — a server's answer, a file on disk — so the rules for reading them
// live here once:
//
//   - a count is checked against the bytes left before anything is
//     allocated for it (Count), so a forged count costs nothing;
//   - a u32 is bounded before it becomes an int (Count, Nonneg, Bytes),
//     so no conversion wraps negative where int is 32 bits;
//   - a variable-length part is read as a cap-limited view of the input
//     (Take, Bytes), never copied, so an append to it cannot reach the
//     next field.
//
// A Reader remembers its first failure and reads zeros after it, so a
// decoder is written as straight-line code and checks Err (or Done) only
// where it must act on a value. Every failure wraps exactly one of
// ErrTruncated and ErrCorrupt.
package codec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

var (
	// ErrTruncated marks input that ends in the middle of a structure.
	ErrTruncated = errors.New("codec: truncated")
	// ErrCorrupt marks input no honest writer produces: an implausible
	// count, an out-of-range value, trailing bytes, or a failed check a
	// decoder reports through Corrupt.
	ErrCorrupt = errors.New("codec: corrupt")
)

// Writer appends primitives to Buf. A caller that knows the encoded
// length presizes Buf, and every method then appends without growing it.
type Writer struct {
	Buf []byte
}

func (w *Writer) U8(v uint8) { w.Buf = append(w.Buf, v) }

// Bool writes 1 for true and 0 for false.
func (w *Writer) Bool(v bool) {
	if v {
		w.U8(1)
	} else {
		w.U8(0)
	}
}

func (w *Writer) U32(v uint32)  { w.Buf = binary.BigEndian.AppendUint32(w.Buf, v) }
func (w *Writer) U64(v uint64)  { w.Buf = binary.BigEndian.AppendUint64(w.Buf, v) }
func (w *Writer) F64(v float64) { w.U64(math.Float64bits(v)) }

// I32 writes v as a two's-complement 32-bit word.
func (w *Writer) I32(v int) { w.U32(uint32(int32(v))) }

// Bytes writes b behind its u32 length.
func (w *Writer) Bytes(b []byte) {
	w.U32(uint32(len(b)))
	w.Buf = append(w.Buf, b...)
}

// Begin opens a length-prefixed field whose content the caller appends
// to Buf directly (no temporary to measure and copy); End, given Begin's
// result, fills the prefix in.
func (w *Writer) Begin() int {
	w.U32(0)
	return len(w.Buf)
}

func (w *Writer) End(at int) {
	binary.BigEndian.PutUint32(w.Buf[at-4:], uint32(len(w.Buf)-at))
}

// Reader consumes primitives from Buf, the bytes not yet read. The
// what argument of each method names the field in a failure.
type Reader struct {
	Buf []byte
	err error
}

// Err returns the first failure, or nil.
func (r *Reader) Err() error { return r.err }

// Corrupt records a failure wrapping ErrCorrupt, unless one is already
// recorded: a value that no honestly written input carries.
func (r *Reader) Corrupt(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: "+format, append([]any{ErrCorrupt}, args...)...)
	}
}

func (r *Reader) truncated(what string) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: %s", ErrTruncated, what)
	}
}

// Take consumes n bytes as a cap-limited view of the input; nil, and
// ErrTruncated recorded, when fewer remain.
func (r *Reader) Take(n int, what string) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || len(r.Buf) < n {
		r.truncated(what)
		return nil
	}
	out := r.Buf[:n:n]
	r.Buf = r.Buf[n:]
	return out
}

func (r *Reader) U8(what string) uint8 {
	if b := r.Take(1, what); b != nil {
		return b[0]
	}
	return 0
}

// Bool reads a byte that must be 0 or 1, so that every accepted input
// is the one Writer.Bool writes.
func (r *Reader) Bool(what string) bool {
	v := r.U8(what)
	if v > 1 {
		r.Corrupt("%s byte %#x is neither 0 nor 1", what, v)
	}
	return v == 1
}

func (r *Reader) U32(what string) uint32 {
	if b := r.Take(4, what); b != nil {
		return binary.BigEndian.Uint32(b)
	}
	return 0
}

func (r *Reader) U64(what string) uint64 {
	if b := r.Take(8, what); b != nil {
		return binary.BigEndian.Uint64(b)
	}
	return 0
}

func (r *Reader) F64(what string) float64 { return math.Float64frombits(r.U64(what)) }

// I32 reads a two's-complement 32-bit word.
func (r *Reader) I32(what string) int { return int(int32(r.U32(what))) }

// Bytes reads a u32-length-prefixed field as a cap-limited view of the
// input.
func (r *Reader) Bytes(what string) []byte {
	n := r.U32(what)
	if uint64(n) > uint64(len(r.Buf)) {
		r.truncated(what)
		return nil
	}
	return r.Take(int(n), what)
}

// Count reads a u32 element count and bounds it by the bytes left, each
// element needing at least min >= 1 of them, so that a forged count
// cannot drive a huge allocation: a count past the bound is ErrCorrupt.
func (r *Reader) Count(what string, min int) int {
	v := r.U32(what)
	if r.err == nil && uint64(v) > uint64(len(r.Buf)/min+1) {
		r.Corrupt("implausible %s count %d", what, v)
	}
	if r.err != nil {
		return 0
	}
	return int(v)
}

// Nonneg reads a u32 that lands in an int (a length, an offset) and
// refuses it past MaxInt32, so the conversion is exact on every platform.
func (r *Reader) Nonneg(what string) int {
	v := r.U32(what)
	if v > math.MaxInt32 {
		r.Corrupt("%s %d exceeds the 32-bit limit", what, v)
		return 0
	}
	return int(v)
}

// Done returns the first failure, or ErrCorrupt when bytes are left: a
// decoder reads exactly the input it is given.
func (r *Reader) Done() error {
	if r.err == nil && len(r.Buf) != 0 {
		r.Corrupt("%d trailing bytes", len(r.Buf))
	}
	return r.err
}

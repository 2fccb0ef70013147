// Package wire provides the deterministic binary encoding of query
// answers (result + verification object) for both the IFMH-tree and the
// signature mesh. The paper's communication-overhead experiments (Fig 8)
// measure exactly these bytes, so the format is explicit and compact
// rather than reflective: every field is written big-endian with
// length-prefixed variable parts.
//
// Transport-level outcomes ride HTTP status codes, never the frames:
// 400 for a frame that does not decode, 413 past the size cap, 422 for
// a frame that decodes but cannot be served, 429 for a request shed by
// admission control (the ErrOverload sentinel; see docs/WIRE.md).
// Per-query refusals travel inside a 200 frame via the status byte.
package wire

import (
	"encoding/binary"
	"fmt"
	"math"
)

// writer appends primitives to a byte slice.
type writer struct {
	buf []byte
}

func (w *writer) u8(v uint8) { w.buf = append(w.buf, v) }
func (w *writer) bool(v bool) {
	if v {
		w.u8(1)
	} else {
		w.u8(0)
	}
}
func (w *writer) u32(v uint32) { w.buf = binary.BigEndian.AppendUint32(w.buf, v) }
func (w *writer) u64(v uint64) { w.buf = binary.BigEndian.AppendUint64(w.buf, v) }
func (w *writer) f64(v float64) {
	w.u64(math.Float64bits(v))
}
func (w *writer) bytes(b []byte) {
	w.u32(uint32(len(b)))
	w.buf = append(w.buf, b...)
}

// begin opens a length-prefixed field whose content the caller appends
// to buf directly (no temporary to measure and copy); end, given begin's
// result, fills the prefix in.
func (w *writer) begin() int {
	w.u32(0)
	return len(w.buf)
}

func (w *writer) end(at int) {
	binary.BigEndian.PutUint32(w.buf[at-4:], uint32(len(w.buf)-at))
}

// reader consumes primitives from a byte slice, remembering the first
// error so call sites stay linear.
type reader struct {
	buf []byte
	err error
}

func (r *reader) fail(what string) {
	if r.err == nil {
		r.err = fmt.Errorf("wire: truncated %s", what)
	}
}

// take consumes n bytes as a cap-limited sub-slice of the input; nil, and
// the failure remembered, when fewer remain.
func (r *reader) take(n uint32, what string) []byte {
	if r.err != nil {
		return nil
	}
	if uint(len(r.buf)) < uint(n) {
		r.fail(what)
		return nil
	}
	out := r.buf[:n:n]
	r.buf = r.buf[n:]
	return out
}

func (r *reader) u8(what string) uint8 {
	if b := r.take(1, what); b != nil {
		return b[0]
	}
	return 0
}

func (r *reader) bool(what string) bool { return r.u8(what) == 1 }

func (r *reader) u32(what string) uint32 {
	if b := r.take(4, what); b != nil {
		return binary.BigEndian.Uint32(b)
	}
	return 0
}

func (r *reader) u64(what string) uint64 {
	if b := r.take(8, what); b != nil {
		return binary.BigEndian.Uint64(b)
	}
	return 0
}

func (r *reader) f64(what string) float64 { return math.Float64frombits(r.u64(what)) }

// view reads a length-prefixed field as a sub-slice of the input, for
// callers that parse it into values of their own.
func (r *reader) view(what string) []byte { return r.take(r.u32(what), what) }

// count reads a u32 element count and sanity-bounds it against the
// remaining buffer (each element needs at least min bytes) so a forged
// count cannot drive huge allocations.
func (r *reader) count(what string, min int) int {
	n := int(r.u32(what))
	if r.err != nil {
		return 0
	}
	if n < 0 || (min > 0 && n > len(r.buf)/min+1) {
		r.fail(what + " count")
		return 0
	}
	return n
}

// nonneg reads a u32 field that lands in an int (counts, offsets) and
// bounds it to MaxInt32 so the conversion can never go negative on a
// 32-bit int.
func (r *reader) nonneg(what string) int {
	v := r.u32(what)
	if v > math.MaxInt32 {
		r.fail(what)
		return 0
	}
	return int(v)
}

func (r *reader) done() error {
	if r.err != nil {
		return r.err
	}
	if len(r.buf) != 0 {
		return fmt.Errorf("wire: %d trailing bytes", len(r.buf))
	}
	return nil
}

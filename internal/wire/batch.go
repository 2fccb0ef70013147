package wire

import (
	"fmt"

	"aqverify/internal/codec"
	"aqverify/internal/query"
)

// Batch framing magic bytes. A batch frame is a magic byte, a u32 item
// count, and length-prefixed items, mirroring the single-answer codecs:
// deterministic, big-endian, no reflection. There is exactly one valid
// layout per magic: 0xB2 was the answer-batch layout without the
// per-item shard id, 0xB3 the layout without the per-item epoch word —
// both are retired, and a frame carrying either fails decoding rather
// than being misparsed under the current layout. 0xB4 and 0xB6 were
// the retired answer-stream layouts and stay reserved (docs/WIRE.md).
const (
	magicQueryBatch  = 0xB1
	magicAnswerBatch = 0xB5

	// Retired layout, recognized only to refuse it by name.
	magicAnswerBatchV1 = 0xB3
)

// maxBatchItems bounds the item count a decoder accepts, so a forged
// frame cannot drive huge allocations before the length checks kick in.
const maxBatchItems = 1 << 20

// ShardNone marks a batch answer that was not attributed to a shard —
// a single-tree server, or a query the router refused.
const ShardNone = -1

// Item status bytes, written to the wire verbatim. The status is
// carried explicitly rather than inferred from the error string: a
// refusal whose message happens to be empty is still a refusal, and
// inferring success from Err == "" would silently re-encode it as an
// empty answer.
const (
	// StatusRefused marks an item whose payload is the server's refusal
	// message (possibly empty).
	StatusRefused uint8 = 0
	// StatusAnswer marks an item whose payload is the query's answer
	// bytes, as EncodeIFMH wrote them.
	StatusAnswer uint8 = 1
)

// BatchAnswer is one entry of a batched response: either the
// serialized answer bytes (the EncodeIFMH payload of a batch item) or
// the server's refusal, selected by the explicit Status
// byte — use NewAnswer/NewRefusal rather than struct literals so the
// status always matches the payload. Shard records which shard of a
// domain-sharded deployment answered (ShardNone when unsharded or
// refused before routing); Epoch the publication epoch of the bundle
// that answered. Every bundle has an epoch >= 1, so 0 has exactly one
// meaning on the wire: refused before any bundle answered (a routing
// failure, a cancelled item). Epochs travel per item, not per frame,
// because a front-end merging per-shard batches can legitimately relay
// items from shards mid-swap at different epochs; the client, not the
// frame, decides what a torn mix means. Verification never depends on
// either word — they are observability and staleness detection.
type BatchAnswer struct {
	Status uint8
	Answer []byte
	Err    string
	Shard  int
	Epoch  uint64
}

// NewAnswer builds a successful item carrying the answer bytes.
func NewAnswer(raw []byte, shard int) BatchAnswer {
	return BatchAnswer{Status: StatusAnswer, Answer: raw, Shard: shard}
}

// NewRefusal builds a refused item carrying the server's message (which
// may legitimately be empty — the status byte, not the message, decides
// the outcome).
func NewRefusal(msg string, shard int) BatchAnswer {
	return BatchAnswer{Status: StatusRefused, Err: msg, Shard: shard}
}

// AtEpoch stamps the item with the publication epoch it was answered
// under, returning the item for chaining.
func (a BatchAnswer) AtEpoch(e uint64) BatchAnswer {
	a.Epoch = e
	return a
}

// EncodeQueryBatch frames many queries into one request body, sized once.
func EncodeQueryBatch(qs []query.Query) []byte {
	n := 5
	for _, q := range qs {
		n += 4 + sizeQuery(q)
	}
	w := &codec.Writer{Buf: make([]byte, 0, n)}
	w.U8(magicQueryBatch)
	w.U32(uint32(len(qs)))
	for _, q := range qs {
		at := w.Begin()
		encodeQuery(w, q)
		w.End(at)
	}
	return w.Buf
}

// DecodeQueryBatch parses a request body framed by EncodeQueryBatch.
func DecodeQueryBatch(b []byte) ([]query.Query, error) {
	r := &codec.Reader{Buf: b}
	if r.U8("magic") != magicQueryBatch {
		return nil, fmt.Errorf("wire: not a query batch")
	}
	n := r.Count("batch queries", 4)
	if n > maxBatchItems {
		return nil, fmt.Errorf("wire: batch of %d queries exceeds the limit", n)
	}
	out := make([]query.Query, 0, n)
	for i := 0; i < n; i++ {
		raw := r.Bytes("batch query")
		if r.Err() != nil {
			break
		}
		q, err := DecodeQuery(raw)
		if err != nil {
			return nil, fmt.Errorf("wire: batch query %d: %w", i, err)
		}
		out = append(out, q)
	}
	if err := r.Done(); err != nil {
		return nil, err
	}
	return out, nil
}

// EncodeAnswerBatch frames many per-query outcomes into one response
// body. Each item is its explicit status byte (StatusAnswer /
// StatusRefused), a u32 shard id biased by one (0 = ShardNone, k =
// shard k-1), a u64 publication epoch (0 only on a refusal), and the
// length-prefixed payload. An item whose status is neither constant is
// a programming error and fails the encode — a frame must never be
// emitted that the decoder would reject. The frame is allocated once, at
// its length. See docs/WIRE.md for worked byte layouts.
func EncodeAnswerBatch(items []BatchAnswer) ([]byte, error) {
	n := 5
	for _, it := range items {
		n += 17 + len(it.Answer) + len(it.Err) // an item carries one of the two
	}
	w := &codec.Writer{Buf: make([]byte, 0, n)}
	w.U8(magicAnswerBatch)
	w.U32(uint32(len(items)))
	for i, it := range items {
		if err := writeAnswerItem(w, it); err != nil {
			return nil, fmt.Errorf("wire: batch item %d: %w", i, err)
		}
	}
	return w.Buf, nil
}

// writeAnswerItem appends one outcome's status byte, 1-biased shard id,
// epoch word and length-prefixed payload.
func writeAnswerItem(w *codec.Writer, it BatchAnswer) error {
	if it.Status != StatusAnswer && it.Status != StatusRefused {
		return fmt.Errorf("unknown status %d", it.Status)
	}
	w.U8(it.Status)
	if it.Shard < 0 {
		w.U32(0)
	} else {
		w.U32(uint32(it.Shard) + 1)
	}
	w.U64(it.Epoch)
	if it.Status == StatusRefused {
		w.U32(uint32(len(it.Err)))
		w.Buf = append(w.Buf, it.Err...)
	} else {
		w.Bytes(it.Answer)
	}
	return nil
}

// DecodeAnswerBatch parses a response body framed by EncodeAnswerBatch.
// Answer payloads are cap-limited views of b, not copies: b lives as
// long as an item does, and an append to one cannot reach the next.
func DecodeAnswerBatch(b []byte) ([]BatchAnswer, error) {
	r := &codec.Reader{Buf: b}
	switch magic := r.U8("magic"); magic {
	case magicAnswerBatch:
	case magicAnswerBatchV1:
		return nil, fmt.Errorf("wire: answer batch uses the retired pre-epoch layout (0xB3); upgrade the server")
	default:
		return nil, fmt.Errorf("wire: not an answer batch")
	}
	n := r.Count("batch answers", 17)
	if n > maxBatchItems {
		return nil, fmt.Errorf("wire: batch of %d answers exceeds the limit", n)
	}
	out := make([]BatchAnswer, 0, n)
	for i := 0; i < n; i++ {
		it := readAnswerItem(r)
		if err := r.Err(); err != nil {
			return nil, fmt.Errorf("wire: batch item %d: %w", i, err)
		}
		out = append(out, it)
	}
	if err := r.Done(); err != nil {
		return nil, err
	}
	return out, nil
}

// readAnswerItem reads one outcome in the layout writeAnswerItem writes,
// its payload a view of the input.
func readAnswerItem(r *codec.Reader) BatchAnswer {
	status := r.U8("item status")
	if status != StatusAnswer && status != StatusRefused {
		r.Corrupt("unknown status %d", status)
	}
	// The 1-biased shard word is bounded before the int conversion, so a
	// forged word cannot wrap negative on a 32-bit platform.
	word := r.U32("item shard")
	if word > maxBatchItems {
		r.Corrupt("shard id %d exceeds the limit", word)
	}
	epoch := r.U64("item epoch")
	payload := r.Bytes("item payload")
	if status == StatusRefused {
		return NewRefusal(string(payload), int(word)-1).AtEpoch(epoch)
	}
	return NewAnswer(payload, int(word)-1).AtEpoch(epoch)
}

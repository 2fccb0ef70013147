package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"aqverify/internal/codec"
)

// Streaming answer frames: the response body of POST /query/stream.
// Where the answer batch (0xB5) buffers every outcome into one frame,
// the stream pipelines them — a header frame announcing the item count,
// then one self-delimiting item frame per outcome *in completion
// order*, closed by a trailer frame whose tally makes truncation
// detectable (an HTTP body can end cleanly mid-stream when the server
// dies; a batch frame cannot lose its tail without failing its length
// checks). Each item carries the original batch index because arrival
// order is completion order, not request order. The item's status,
// shard, epoch and payload encoding is shared with the answer batch
// (writeAnswerItem, readAnswerItem); 0xB4 was the stream layout without the per-item
// epoch word and is retired — refused by name, never misparsed. See
// docs/WIRE.md for the byte layouts.
const magicAnswerStream = 0xB6

// Stream frame kinds, following the header.
const (
	frameStreamItem    = 0x01
	frameStreamTrailer = 0x02
)

// maxStreamPayload bounds one streamed item's payload so a forged
// length prefix cannot drive a huge allocation: 64 MiB per item, far
// past any answer a tree of this module serializes.
const maxStreamPayload = 64 << 20

// StreamItem is one decoded item frame: the outcome plus the index it
// had in the query batch that opened the stream.
type StreamItem struct {
	Index int
	Ans   BatchAnswer
}

// EncodeStreamHeader frames the stream opening: magic and the item
// count the stream promises to deliver.
func EncodeStreamHeader(count int) []byte {
	w := &codec.Writer{}
	w.U8(magicAnswerStream)
	w.U32(uint32(count))
	return w.Buf
}

// EncodeStreamItem frames one outcome as it completes. The index is the
// item's position in the query batch; status, shard, epoch and payload
// use the answer-batch item layout. An out-of-range index or unknown
// status is a programming error and fails the encode.
func EncodeStreamItem(index int, it BatchAnswer) ([]byte, error) {
	if index < 0 {
		return nil, fmt.Errorf("wire: stream item index %d is negative", index)
	}
	w := &codec.Writer{}
	w.U8(frameStreamItem)
	w.U32(uint32(index))
	if err := writeAnswerItem(w, it); err != nil {
		return nil, fmt.Errorf("wire: stream item %d: %w", index, err)
	}
	return w.Buf, nil
}

// EncodeStreamTrailer closes the stream: the tally must equal the
// number of item frames written, which a complete stream makes equal to
// the header count.
func EncodeStreamTrailer(tally int) []byte {
	w := &codec.Writer{}
	w.U8(frameStreamTrailer)
	w.U32(uint32(tally))
	return w.Buf
}

// StreamReader decodes an answer stream incrementally off an io.Reader
// — frame by frame as bytes arrive, never buffering the body. It is
// strict: item indexes must be unique and inside the header count, the
// trailer must tally exactly the delivered items, every announced item
// must arrive before the trailer, and nothing may follow it. Any bare
// EOF before the trailer — the wire shape of a mid-stream server death
// — is an error, so a consumer always knows whether the stream it read
// was the stream the server meant to send.
type StreamReader struct {
	r        io.Reader
	count    int
	seen     []bool
	received int
	done     bool
	err      error
	head     [itemHead]byte // every fixed-width field lands here, not on the heap
}

// itemHead is an item's fixed-width prefix: status byte, shard word,
// epoch word and payload length.
const itemHead = 1 + 4 + 8 + 4

// NewStreamReader consumes and validates the header frame, leaving the
// reader positioned at the first item.
func NewStreamReader(r io.Reader) (*StreamReader, error) {
	sr := &StreamReader{r: r}
	hdr := sr.head[:5]
	if err := sr.readFull(hdr, "stream header"); err != nil {
		return nil, err
	}
	switch hdr[0] {
	case magicAnswerStream:
	case magicAnswerStreamV1:
		return nil, fmt.Errorf("wire: answer stream uses the retired pre-epoch layout (0xB4); upgrade the server")
	default:
		return nil, fmt.Errorf("wire: not an answer stream")
	}
	// Bound the u32 before converting: on a 32-bit platform a huge
	// count would wrap negative and slip past the limit check.
	n := binary.BigEndian.Uint32(hdr[1:])
	if n > maxBatchItems {
		return nil, fmt.Errorf("wire: stream of %d answers exceeds the limit", n)
	}
	sr.count = int(n)
	sr.seen = make([]bool, n)
	return sr, nil
}

// Count returns the item count the header announced.
func (sr *StreamReader) Count() int { return sr.count }

// Next decodes the next item frame, blocking until its bytes arrive.
// It returns io.EOF once the trailer has been consumed and validated —
// every announced item was delivered exactly once — and any other error
// is sticky: truncation, a duplicate or out-of-range index, an unknown
// frame kind or status, or a trailer whose tally disagrees.
func (sr *StreamReader) Next() (StreamItem, error) {
	if sr.err != nil {
		return StreamItem{}, sr.err
	}
	if sr.done {
		return StreamItem{}, io.EOF
	}
	item, err := sr.next()
	if err != nil && !errors.Is(err, io.EOF) {
		sr.err = err
	}
	return item, err
}

func (sr *StreamReader) next() (StreamItem, error) {
	kind := sr.head[:1]
	if err := sr.readFull(kind, "stream frame"); err != nil {
		return StreamItem{}, err
	}
	switch kind[0] {
	case frameStreamItem:
		return sr.readItem()
	case frameStreamTrailer:
		tally, err := sr.readU32("stream trailer")
		if err != nil {
			return StreamItem{}, err
		}
		if tally != uint32(sr.received) {
			return StreamItem{}, fmt.Errorf("wire: stream trailer tallies %d items, %d were delivered", tally, sr.received)
		}
		if sr.received != sr.count {
			return StreamItem{}, fmt.Errorf("wire: stream closed after %d of %d items", sr.received, sr.count)
		}
		// Canonical: the trailer is the last byte of the stream.
		if _, err := io.ReadFull(sr.r, sr.head[:1]); err == nil {
			return StreamItem{}, fmt.Errorf("wire: bytes after the stream trailer")
		} else if !errors.Is(err, io.EOF) {
			return StreamItem{}, fmt.Errorf("wire: reading past the stream trailer: %w", err)
		}
		sr.done = true
		return StreamItem{}, io.EOF
	default:
		return StreamItem{}, fmt.Errorf("wire: unknown stream frame kind %#x", kind[0])
	}
}

// readItem decodes one item frame past its kind byte.
func (sr *StreamReader) readItem() (StreamItem, error) {
	idx, err := sr.readU32("stream item index")
	if err != nil {
		return StreamItem{}, err
	}
	// Compare as u32: converting first would wrap a huge index negative
	// on a 32-bit platform and pass the bound (count is <= maxBatchItems,
	// so the conversion below cannot).
	if idx >= uint32(sr.count) {
		return StreamItem{}, fmt.Errorf("wire: stream item index %d out of range (stream of %d)", idx, sr.count)
	}
	if sr.seen[idx] {
		return StreamItem{}, fmt.Errorf("wire: stream item %d delivered twice", idx)
	}
	// The fixed fields and the payload are read into one buffer and
	// decoded as the answer batch decodes an item.
	if err := sr.readFull(sr.head[:], "stream item"); err != nil {
		return StreamItem{}, err
	}
	plen := binary.BigEndian.Uint32(sr.head[itemHead-4:])
	if plen > maxStreamPayload {
		return StreamItem{}, fmt.Errorf("wire: stream payload of %d bytes exceeds the limit", plen)
	}
	item := make([]byte, itemHead+int(plen))
	copy(item, sr.head[:])
	if err := sr.readFull(item[itemHead:], "stream payload"); err != nil {
		return StreamItem{}, err
	}
	r := codec.Reader{Buf: item}
	ans := readAnswerItem(&r)
	if err := r.Done(); err != nil {
		return StreamItem{}, fmt.Errorf("wire: stream item %d: %w", idx, err)
	}
	sr.seen[idx] = true
	sr.received++
	return StreamItem{Index: int(idx), Ans: ans}, nil
}

// readFull fills buf or reports a truncation: any EOF mid-frame (bare
// or unexpected) means the stream ended before what it promised.
func (sr *StreamReader) readFull(buf []byte, what string) error {
	if _, err := io.ReadFull(sr.r, buf); err != nil {
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			return fmt.Errorf("wire: truncated %s", what)
		}
		return fmt.Errorf("wire: reading %s: %w", what, err)
	}
	return nil
}

func (sr *StreamReader) readU32(what string) (uint32, error) {
	b := sr.head[:4]
	if err := sr.readFull(b, what); err != nil {
		return 0, err
	}
	return binary.BigEndian.Uint32(b), nil
}

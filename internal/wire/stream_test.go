package wire

import (
	"bytes"
	"io"
	"testing"
)

// encodeStream frames a complete stream — header, items in the given
// order, trailer — into one byte slice, as a well-behaved server would
// over its lifetime.
func encodeStream(t *testing.T, count int, items []StreamItem) []byte {
	t.Helper()
	var buf bytes.Buffer
	buf.Write(EncodeStreamHeader(count))
	for _, it := range items {
		frame, err := EncodeStreamItem(it.Index, it.Ans)
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(frame)
	}
	buf.Write(EncodeStreamTrailer(len(items)))
	return buf.Bytes()
}

// drainStream decodes a full stream, returning the items in arrival
// order.
func drainStream(b []byte) ([]StreamItem, error) {
	sr, err := NewStreamReader(bytes.NewReader(b))
	if err != nil {
		return nil, err
	}
	var out []StreamItem
	for {
		it, err := sr.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		out = append(out, it)
	}
}

func streamItems() []StreamItem {
	// Completion order is not index order — that is the point of the
	// stream: index 2 finished first.
	return []StreamItem{
		{Index: 2, Ans: NewAnswer([]byte{0xA1, 9, 9}, 1).AtEpoch(5)},
		{Index: 0, Ans: NewRefusal("out of domain", ShardNone)},
		{Index: 3, Ans: NewRefusal("", 0).AtEpoch(1)}, // refusal with an empty message stays a refusal
		{Index: 1, Ans: NewAnswer(nil, ShardNone).AtEpoch(1 << 33)},
	}
}

func TestStreamRoundTrip(t *testing.T) {
	items := streamItems()
	enc := encodeStream(t, len(items), items)
	got, err := drainStream(enc)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(items) {
		t.Fatalf("decoded %d items, want %d", len(got), len(items))
	}
	for i, want := range items {
		g := got[i]
		if g.Index != want.Index || g.Ans.Status != want.Ans.Status ||
			g.Ans.Err != want.Ans.Err || !bytes.Equal(g.Ans.Answer, want.Ans.Answer) ||
			g.Ans.Shard != want.Ans.Shard || g.Ans.Epoch != want.Ans.Epoch {
			t.Errorf("item %d = %+v, want %+v", i, g, want)
		}
	}
	// The empty stream is valid too.
	if got, err := drainStream(encodeStream(t, 0, nil)); err != nil || len(got) != 0 {
		t.Fatalf("empty stream: items=%d err=%v", len(got), err)
	}
}

func TestStreamRejectsTruncation(t *testing.T) {
	enc := encodeStream(t, 4, streamItems())
	// Every strict prefix must fail: a stream that ends before its
	// trailer — the wire shape of a dying server — is always an error.
	for cut := 0; cut < len(enc); cut++ {
		if _, err := drainStream(enc[:cut]); err == nil {
			t.Fatalf("stream truncated to %d of %d bytes decoded", cut, len(enc))
		}
	}
	// Trailing bytes after the trailer are rejected.
	if _, err := drainStream(append(append([]byte(nil), enc...), 0)); err == nil {
		t.Error("stream with a trailing byte decoded")
	}
}

func TestStreamRejectsBadFrames(t *testing.T) {
	items := streamItems()

	// A duplicate index: the same item delivered twice.
	if _, err := drainStream(encodeStream(t, 5, append(items, items[0]))); err == nil {
		t.Error("stream with a duplicate index decoded")
	}

	// An out-of-range index: the header promised fewer items.
	if _, err := drainStream(encodeStream(t, 3, items)); err == nil {
		t.Error("stream with an out-of-range index decoded")
	}

	// A trailer arriving before every announced item: count 5, 4 items.
	if _, err := drainStream(encodeStream(t, 5, items)); err == nil {
		t.Error("stream missing an announced item decoded")
	}

	// A trailer whose tally disagrees with the delivered items.
	var buf bytes.Buffer
	buf.Write(EncodeStreamHeader(len(items)))
	for _, it := range items {
		frame, err := EncodeStreamItem(it.Index, it.Ans)
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(frame)
	}
	buf.Write(EncodeStreamTrailer(len(items) - 1))
	if _, err := drainStream(buf.Bytes()); err == nil {
		t.Error("stream with a lying trailer tally decoded")
	}

	// An unknown frame kind.
	bad := encodeStream(t, len(items), items)
	bad[5] = 0x7F // first byte after the 5-byte header is a frame kind
	if _, err := drainStream(bad); err == nil {
		t.Error("unknown frame kind decoded")
	}

	// An unknown status byte inside an item frame.
	bad = encodeStream(t, len(items), items)
	bad[10] = 9 // header (5) + kind (1) + index (4), then the status byte
	if _, err := drainStream(bad); err == nil {
		t.Error("unknown stream status decoded")
	}

	// A batch frame is not a stream.
	benc, err := EncodeAnswerBatch([]BatchAnswer{NewAnswer([]byte{1}, ShardNone)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewStreamReader(bytes.NewReader(benc)); err == nil {
		t.Error("answer batch accepted as a stream header")
	}

	// A forged u32 at its maximum must be bounded *before* any int
	// conversion (it would wrap negative on a 32-bit platform): a
	// 0xFFFFFFFF header count and a 0xFFFFFFFF item index both reject.
	hugeCount := []byte{0xB6, 0xFF, 0xFF, 0xFF, 0xFF}
	if _, err := NewStreamReader(bytes.NewReader(hugeCount)); err == nil {
		t.Error("stream with a 0xFFFFFFFF count accepted")
	}
	var buf2 bytes.Buffer
	buf2.Write(EncodeStreamHeader(1))
	buf2.Write([]byte{frameStreamItem, 0xFF, 0xFF, 0xFF, 0xFF})          // index
	buf2.Write([]byte{StatusAnswer, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}) // status, shard, epoch
	buf2.Write([]byte{0, 0, 0, 0})                                       // empty payload
	buf2.Write(EncodeStreamTrailer(1))
	if _, err := drainStream(buf2.Bytes()); err == nil {
		t.Error("stream item with a 0xFFFFFFFF index decoded")
	}
	buf2.Reset()
	buf2.Write(EncodeStreamHeader(1))
	buf2.Write([]byte{frameStreamItem, 0, 0, 0, 0})                                  // index 0
	buf2.Write([]byte{StatusAnswer, 0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0, 0, 0, 0, 0}) // huge shard word
	buf2.Write(EncodeStreamTrailer(1))
	if _, err := drainStream(buf2.Bytes()); err == nil {
		t.Error("stream item with a 0xFFFFFFFF shard word decoded")
	}

	// The retired pre-epoch stream layout (0xB4) is refused by name.
	if _, err := NewStreamReader(bytes.NewReader([]byte{0xB4, 0, 0, 0, 0})); err == nil {
		t.Error("retired 0xB4 stream header accepted")
	}

	// Encoder-side guards mirror the decoder.
	if _, err := EncodeStreamItem(-1, NewAnswer(nil, 0)); err == nil {
		t.Error("negative stream index encoded")
	}
	if _, err := EncodeStreamItem(0, BatchAnswer{Status: 3}); err == nil {
		t.Error("unknown stream status encoded")
	}
}

// TestStreamErrorsAreSticky pins that a failed stream stays failed: the
// consumer cannot read past a decode error into misparsed frames.
func TestStreamErrorsAreSticky(t *testing.T) {
	items := streamItems()
	enc := encodeStream(t, 3, items) // index 3 is out of range for count 3
	sr, err := NewStreamReader(bytes.NewReader(enc))
	if err != nil {
		t.Fatal(err)
	}
	var firstErr error
	for firstErr == nil {
		_, firstErr = sr.Next()
	}
	if firstErr == io.EOF {
		t.Fatal("invalid stream drained cleanly")
	}
	if _, err := sr.Next(); err != firstErr {
		t.Fatalf("second Next returned %v, want the sticky %v", err, firstErr)
	}
}

// TestStreamWorkedExample pins the exact bytes of the docs/WIRE.md
// worked example, so the documentation cannot drift from the codec.
func TestStreamWorkedExample(t *testing.T) {
	var buf bytes.Buffer
	buf.Write(EncodeStreamHeader(2))
	frame, err := EncodeStreamItem(1, NewAnswer([]byte{0xA1, 0xAA, 0xBB, 0xCC}, 2).AtEpoch(3))
	if err != nil {
		t.Fatal(err)
	}
	buf.Write(frame)
	frame, err = EncodeStreamItem(0, NewRefusal("no", ShardNone))
	if err != nil {
		t.Fatal(err)
	}
	buf.Write(frame)
	buf.Write(EncodeStreamTrailer(2))

	want := []byte{
		// header
		0xB6, 0x00, 0x00, 0x00, 0x02,
		// item frame: index 1, answered by shard 2 at epoch 3, 4 payload bytes
		0x01, 0x00, 0x00, 0x00, 0x01,
		0x01, 0x00, 0x00, 0x00, 0x03,
		0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x03,
		0x00, 0x00, 0x00, 0x04, 0xA1, 0xAA, 0xBB, 0xCC,
		// item frame: index 0, refused before routing (no epoch), message "no"
		0x01, 0x00, 0x00, 0x00, 0x00,
		0x00, 0x00, 0x00, 0x00, 0x00,
		0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
		0x00, 0x00, 0x00, 0x02, 0x6E, 0x6F,
		// trailer
		0x02, 0x00, 0x00, 0x00, 0x02,
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("worked example drifted:\n got % X\nwant % X", buf.Bytes(), want)
	}
	if _, err := drainStream(buf.Bytes()); err != nil {
		t.Fatalf("worked example does not decode: %v", err)
	}
}

// TestStreamItemIsOneAllocation pins the stream decoder's bill: an
// answered item costs one allocation, the buffer its fixed fields and
// payload are read into; every fixed-width field lands in an array the
// reader owns.
func TestStreamItemIsOneAllocation(t *testing.T) {
	drain := func(n int) float64 {
		items := make([]StreamItem, n)
		for i := range items {
			items[i] = StreamItem{Index: i, Ans: NewAnswer(bytes.Repeat([]byte{0xA1}, 300), 1).AtEpoch(2)}
		}
		enc := encodeStream(t, n, items)
		return testing.AllocsPerRun(20, func() {
			sr, err := NewStreamReader(bytes.NewReader(enc))
			for err == nil {
				_, err = sr.Next()
			}
		})
	}
	if per := (drain(64) - drain(32)) / 32; per != 1 {
		t.Errorf("%v allocations per streamed item, want 1", per)
	}
}

package wire

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestRoundTrip(t *testing.T) {
	tests := []struct {
		name  string
		frame Frame
	}{
		{"empty publish", Frame{Op: OpPublish}},
		{"publish with body", Frame{
			Op: OpPublish, Seq: 7, Exchange: "workspace.fanout", Key: "ws1",
			MessageID: "m-1", Body: []byte("hello"), Persistent: true,
			Headers: map[string]string{"x-obs-trace": "t1"},
		}},
		{"deliver", Frame{
			Op: OpDeliver, Queue: "sync.requests", ConsumerID: "c1",
			DeliveryID: 42, Body: []byte{0, 1, 2, 255}, Redelivery: 2,
		}},
		{"error reply", Frame{Op: OpError, Seq: 3, Err: "queue not found"}},
		{"stats", Frame{Op: OpStatsReply, Stats: []byte(`{"depth":3}`)}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := NewWriter(&buf).Write(&tt.frame); err != nil {
				t.Fatalf("Write: %v", err)
			}
			got, err := NewReader(&buf).Read()
			if err != nil {
				t.Fatalf("Read: %v", err)
			}
			if got.Op != tt.frame.Op || got.Seq != tt.frame.Seq ||
				got.Queue != tt.frame.Queue || got.Exchange != tt.frame.Exchange ||
				got.Key != tt.frame.Key || got.MessageID != tt.frame.MessageID ||
				!bytes.Equal(got.Body, tt.frame.Body) ||
				got.Persistent != tt.frame.Persistent ||
				got.DeliveryID != tt.frame.DeliveryID ||
				got.Err != tt.frame.Err {
				t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, tt.frame)
			}
		})
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(seq uint64, queue, key string, body []byte, persistent bool) bool {
		in := Frame{Op: OpPublish, Seq: seq, Queue: queue, Key: key, Body: body, Persistent: persistent}
		var buf bytes.Buffer
		if err := NewWriter(&buf).Write(&in); err != nil {
			return false
		}
		out, err := NewReader(&buf).Read()
		if err != nil {
			return false
		}
		return out.Seq == in.Seq && out.Queue == in.Queue && out.Key == in.Key &&
			bytes.Equal(out.Body, in.Body) && out.Persistent == in.Persistent
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMultipleFramesOnOneStream(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for i := 0; i < 100; i++ {
		if err := w.Write(&Frame{Op: OpPing, Seq: uint64(i)}); err != nil {
			t.Fatalf("Write %d: %v", i, err)
		}
	}
	r := NewReader(&buf)
	for i := 0; i < 100; i++ {
		f, err := r.Read()
		if err != nil {
			t.Fatalf("Read %d: %v", i, err)
		}
		if f.Seq != uint64(i) {
			t.Fatalf("frame %d out of order: seq %d", i, f.Seq)
		}
	}
	if _, err := r.Read(); err != io.EOF {
		t.Fatalf("expected EOF at stream end, got %v", err)
	}
}

func TestTruncatedFrame(t *testing.T) {
	var buf bytes.Buffer
	if err := NewWriter(&buf).Write(&Frame{Op: OpPublish, Body: []byte("payload")}); err != nil {
		t.Fatal(err)
	}
	// Cut the stream mid-payload.
	cut := buf.Bytes()[:buf.Len()-3]
	if _, err := NewReader(bytes.NewReader(cut)).Read(); !errors.Is(err, ErrShortFrame) {
		t.Fatalf("expected ErrShortFrame, got %v", err)
	}
	// Cut mid-header.
	if _, err := NewReader(bytes.NewReader(cut[:2])).Read(); !errors.Is(err, ErrShortFrame) {
		t.Fatalf("expected ErrShortFrame on short header, got %v", err)
	}
}

func TestOversizedFrameRejected(t *testing.T) {
	// Hand-craft a header claiming a payload larger than the cap.
	hdr := []byte{binaryMarker, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F}
	if _, err := NewReader(bytes.NewReader(hdr)).Read(); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("expected ErrFrameTooLarge, got %v", err)
	}
}

func TestOpString(t *testing.T) {
	ops := []Op{
		OpDeclareQueue, OpDeleteQueue, OpDeclareExchange, OpBindQueue, OpUnbindQueue,
		OpPublish, OpSubscribe, OpCancel, OpAck, OpNack, OpDeliver, OpOK, OpError,
		OpQueueStats, OpStatsReply, OpPing, OpPong,
	}
	seen := make(map[string]bool, len(ops))
	for _, op := range ops {
		s := op.String()
		if s == "" || seen[s] {
			t.Fatalf("op %d has empty or duplicate name %q", op, s)
		}
		seen[s] = true
	}
	if got := Op(99).String(); got != "op(99)" {
		t.Fatalf("unknown op string = %q", got)
	}
}

// TestFormatInterop pins the one-format contract: a frame framed the pre-v2
// way (4-byte length + JSON) or under a retired binary marker is refused
// with ErrNotBinary rather than misparsed, while binary frames on a fresh
// stream still decode.
func TestFormatInterop(t *testing.T) {
	legacy := legacyFrame(`{"op":6,"seq":9,"exchange":"ex","key":"route","body":"bWl4ZWQ="}`)
	if _, err := NewReader(bytes.NewReader(legacy)).Read(); !errors.Is(err, ErrNotBinary) {
		t.Fatalf("pre-v2 frame: err = %v, want ErrNotBinary", err)
	}
	for _, m := range retiredMarkers {
		if _, err := NewReader(bytes.NewReader(retiredFrame(&Frame{Op: OpPing, Seq: 1}, m))).Read(); !errors.Is(err, ErrNotBinary) {
			t.Fatalf("%#x frame: err = %v, want ErrNotBinary", m, err)
		}
	}
	if want := fmt.Sprintf("0x%X", binaryMarker); !strings.Contains(ErrNotBinary.Error(), want) {
		t.Fatalf("ErrNotBinary %q does not name the marker %s", ErrNotBinary, want)
	}
	frame := Frame{
		Op: OpPublish, Seq: 9, Exchange: "ex", Key: "route",
		MessageID: "m-9", Body: []byte("mixed"), Persistent: true,
		Headers: map[string]string{"x-obs-span": "s9", "x-custom": "v"},
	}
	var buf bytes.Buffer
	if err := NewWriter(&buf).Write(&frame); err != nil {
		t.Fatal(err)
	}
	got, err := NewReader(&buf).Read()
	if err != nil {
		t.Fatal(err)
	}
	if got.Op != frame.Op || got.Seq != frame.Seq || got.Exchange != frame.Exchange ||
		got.Key != frame.Key || got.MessageID != frame.MessageID ||
		!bytes.Equal(got.Body, frame.Body) || !got.Persistent ||
		got.Headers["x-obs-span"] != "s9" || got.Headers["x-custom"] != "v" {
		t.Fatalf("binary frame mismatch: %+v", got)
	}
}

// TestReaderReusesBuffer pins the documented aliasing contract: the frame
// returned by Read (and its Body) is only valid until the next Read, and
// Clone detaches it.
func TestReaderReusesBuffer(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.Write(&Frame{Op: OpDeliver, Body: []byte("first-payload")}); err != nil {
		t.Fatal(err)
	}
	if err := w.Write(&Frame{Op: OpDeliver, Body: []byte("second")}); err != nil {
		t.Fatal(err)
	}
	r := NewReader(&buf)
	f1, err := r.Read()
	if err != nil {
		t.Fatal(err)
	}
	kept := f1.Body // aliases the reader's buffer
	saved := f1.Clone()
	f2, err := r.Read()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(f2.Body, []byte("second")) {
		t.Fatalf("second frame body = %q", f2.Body)
	}
	if bytes.Equal(kept, []byte("first-payload")) {
		t.Fatal("aliased body survived the next Read; buffer is not being reused")
	}
	if !bytes.Equal(saved.Body, []byte("first-payload")) {
		t.Fatalf("Clone did not detach: %q", saved.Body)
	}
}

// TestInternedHeaderKeys checks that hot header keys encode to a single byte
// and unknown keys still round-trip via the literal escape.
func TestInternedHeaderKeys(t *testing.T) {
	interned := Frame{Op: OpPublish, Headers: map[string]string{"x-obs-trace": "bin"}}
	literal := Frame{Op: OpPublish, Headers: map[string]string{"x-totally-custom-key": "bin"}}
	var bi, bl bytes.Buffer
	if err := NewWriter(&bi).Write(&interned); err != nil {
		t.Fatal(err)
	}
	if err := NewWriter(&bl).Write(&literal); err != nil {
		t.Fatal(err)
	}
	// The literal key spells out its 20 bytes; the interned key costs 1.
	if bl.Len() <= bi.Len()+10 {
		t.Fatalf("interned key not compact: interned=%d literal=%d", bi.Len(), bl.Len())
	}
	for _, buf := range []*bytes.Buffer{&bi, &bl} {
		f, err := NewReader(buf).Read()
		if err != nil {
			t.Fatal(err)
		}
		if f.Headers["x-obs-trace"] != "bin" && f.Headers["x-totally-custom-key"] != "bin" {
			t.Fatalf("headers lost: %v", f.Headers)
		}
	}
}

// TestMalformedBinary feeds hand-corrupted binary frames and expects clean
// errors, never panics or silent acceptance.
func TestMalformedBinary(t *testing.T) {
	frame := func(payload ...byte) []byte {
		b := []byte{binaryMarker, byte(len(payload))}
		return append(b, payload...)
	}
	cases := map[string][]byte{
		"unknown field id":    frame(0x63),
		"zero field id":       frame(0x00),
		"truncated varint":    frame(fSeq, 0x80),
		"overlong varint":     frame(fSeq, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80),
		"string over payload": frame(fQueue, 0x20, 'q'),
		"bytes after body":    frame(fBody, 0x01, 'x', fSeq, 0x01),
		"header count lie":    frame(fHeaders, 0x7f),
		"bad interned key":    frame(fHeaders, 0x01, 0x63, 0x01, 'v'),
		"truncated headers":   frame(fHeaders, 0x02, 0x02, 0x01, 'v'),
		// Retired interned ids stay unassigned: the codec header (1) and
		// the workspace-routing stamps (5, 6) are refused, not translated.
		"retired key id 1": frame(fHeaders, 0x01, 0x01, 0x01, 'v'),
		"retired key id 5": frame(fHeaders, 0x01, 0x05, 0x01, 'v'),
		"retired key id 6": frame(fHeaders, 0x01, 0x06, 0x01, 'v'),
	}
	for name, data := range cases {
		t.Run(name, func(t *testing.T) {
			if _, err := NewReader(bytes.NewReader(data)).Read(); err == nil {
				t.Fatalf("malformed frame %x accepted", data)
			}
		})
	}
	// An over-limit binary length prefix is rejected before allocation.
	huge := append([]byte{binaryMarker}, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F)
	if _, err := NewReader(bytes.NewReader(huge)).Read(); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("expected ErrFrameTooLarge, got %v", err)
	}
}

// TestWriterRejectsOversizedFrame checks the cap applies on the encode side.
func TestWriterRejectsOversizedFrame(t *testing.T) {
	f := &Frame{Op: OpPublish, Body: make([]byte, MaxFrameSize+1)}
	if err := NewWriter(io.Discard).Write(f); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("expected ErrFrameTooLarge, got %v", err)
	}
}

// TestBinaryJSONCrossCheck runs every frame shape through every framing:
// the binary frame decodes to exactly its input, and the same frame framed
// the pre-v2 way (4-byte length + JSON) or under a retired marker is
// refused with ErrNotBinary.
func TestBinaryJSONCrossCheck(t *testing.T) {
	frames := []Frame{
		{Op: OpPublish, Seq: 1, Exchange: "e", Key: "k", Body: []byte("b"), Persistent: true},
		{Op: OpDeliver, Queue: "q", ConsumerID: "c", DeliveryID: 5, Redelivery: 3, Body: []byte{0xB2, 0x00}},
		{Op: OpNack, DeliveryID: 9, Requeue: true},
		{Op: OpError, Seq: 2, Err: "boom"},
		{Op: OpSubscribe, Queue: "q", Prefetch: 64},
		{Op: OpStatsReply, Seq: 4, Stats: []byte{0x0B, 0x01}},
		{Op: OpPublish, Headers: map[string]string{"x-obs-trace": "t7", "x-obs-span": "s3", "weird": "☃"}},
	}
	for i, in := range frames {
		payload, err := json.Marshal(&in)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := NewReader(bytes.NewReader(legacyFrame(string(payload)))).Read(); !errors.Is(err, ErrNotBinary) {
			t.Fatalf("frame %d pre-v2: err = %v, want ErrNotBinary", i, err)
		}
		for _, m := range retiredMarkers {
			if _, err := NewReader(bytes.NewReader(retiredFrame(&in, m))).Read(); !errors.Is(err, ErrNotBinary) {
				t.Fatalf("frame %d %#x: err = %v, want ErrNotBinary", i, m, err)
			}
		}
		var bb bytes.Buffer
		if err := NewWriter(&bb).Write(&in); err != nil {
			t.Fatal(err)
		}
		fromBin, err := NewReader(&bb).Read()
		if err != nil {
			t.Fatalf("frame %d bin: %v", i, err)
		}
		got, want := fromBin.Clone(), in
		normalizeFrame(got)
		normalizeFrame(&want)
		if !reflect.DeepEqual(*got, want) {
			t.Fatalf("frame %d diverged:\n in:  %+v\n bin: %+v", i, want, *got)
		}
	}
}

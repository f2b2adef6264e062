package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"reflect"
	"testing"
)

// normalizeFrame folds the empty/nil asymmetry of the encoder, which omits
// empty headers, bodies and stats: a frame decoded from a payload that
// spelled them out loses them on re-encode, which is fine — the two forms
// mean the same thing.
func normalizeFrame(f *Frame) {
	if len(f.Headers) == 0 {
		f.Headers = nil
	}
	if len(f.Body) == 0 {
		f.Body = nil
	}
	if len(f.Stats) == 0 {
		f.Stats = nil
	}
}

// legacyFrame is a frame as pre-v2 peers framed it: a 4-byte big-endian
// length, then a JSON payload. The reader must refuse it.
func legacyFrame(payload string) []byte {
	return append(binary.BigEndian.AppendUint32(nil, uint32(len(payload))), payload...)
}

// retiredMarkers are the markers of earlier binary protocols: 0xB2 peers
// wait for an OpOK to every ack, 0xB3 peers expect every commit result to
// echo its proposal's key, 0xB4 peers cannot decode hex strings sent as raw
// bytes, 0xB6 peers declare the RPC envelope's one-way flag after its
// reply-routing fields, 0xB7 peers tag every value and frame every struct
// field with its length. The reader must refuse all five.
var retiredMarkers = []byte{0xB2, 0xB3, 0xB4, 0xB6, 0xB7}

// retiredFrame is f in today's encoding under a retired marker.
func retiredFrame(f *Frame, marker byte) []byte {
	var buf bytes.Buffer
	if err := NewWriter(&buf).Write(f); err != nil {
		panic(err)
	}
	b := buf.Bytes()
	b[0] = marker
	return b
}

// FuzzFrameCodec feeds arbitrary bytes to the frame reader. Whatever decodes
// must survive a re-encode/re-decode round trip unchanged, a stream that
// does not start with the binary marker must be refused with ErrNotBinary,
// and nothing may panic — a corrupt, malicious or pre-v2 peer gets an error,
// never a crash.
func FuzzFrameCodec(f *testing.F) {
	var pub bytes.Buffer
	_ = NewWriter(&pub).Write(&Frame{
		Op: OpPublish, Seq: 7, Exchange: "ex", Key: "k",
		Headers:    map[string]string{"x-obs-trace": "t1"},
		Body:       []byte("payload"),
		Persistent: true,
	})
	f.Add(pub.Bytes())
	var ping bytes.Buffer
	_ = NewWriter(&ping).Write(&Frame{Op: OpPing, Seq: 1})
	f.Add(ping.Bytes())
	f.Add(legacyFrame(`{"op":11,"queue":"q","deliveryId":3,"body":"bGVnYWN5"}`)) // pre-v2 JSON frame
	var mixed bytes.Buffer                                                       // pre-v2 frame then binary on one stream
	mixed.Write(legacyFrame(`{"op":16,"seq":1}`))
	_ = NewWriter(&mixed).Write(&Frame{Op: OpPong, Seq: 1})
	f.Add(mixed.Bytes())
	f.Add(retiredFrame(&Frame{Op: OpAck, DeliveryID: 3}, 0xB2))                                               // peer awaiting OK to acks
	f.Add(retiredFrame(&Frame{Op: OpDeliver, ConsumerID: "c1", Queue: "q", DeliveryID: 3}, 0xB3))             // peer expecting echoes
	f.Add(retiredFrame(&Frame{Op: OpDeliver, ConsumerID: "c1", DeliveryID: 4, Body: []byte{1}}, 0xB4))        // peer sending hex as text
	f.Add(retiredFrame(&Frame{Op: OpDeliver, ConsumerID: "c1", DeliveryID: 5, Body: []byte{11, 1}}, 0xB7))    // peer tagging every value
	f.Add([]byte{0, 0, 0})                                                                                    // truncated pre-v2 header
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 'x'})                                                                // over-limit pre-v2 length prefix
	f.Add([]byte{0, 0, 0, 2, '{', '}', 0, 0, 0})                                                              // pre-v2 empty frame + torn tail
	f.Add([]byte{binaryMarker})                                                                               // marker with no length
	f.Add([]byte{binaryMarker, 0x80})                                                                         // truncated length varint
	f.Add([]byte{binaryMarker, 0x02, fSeq, 0x80})                                                             // truncated field varint
	f.Add([]byte{binaryMarker, 0x01, 0x63})                                                                   // unknown field id
	f.Add([]byte{binaryMarker, 0x05, fHeaders, 0x01, 0x05, 0x01, 'v'})                                        // retired route-stamp key id
	f.Add([]byte{binaryMarker, 0x04, fBody, 0x01, 'x', fSeq})                                                 // bytes after body
	f.Add([]byte{binaryMarker, 0xff, 0xff, 0xff, 0xff, 0x7f})                                                 // over-limit binary length
	f.Add([]byte{binaryMarker, 0x05, fHeaders, 0x01, 0x63, 0x01, 'v'})                                        // unknown interned key
	f.Add([]byte{binaryMarker, 0x0c, fSeq, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01}) // overlong varint

	f.Fuzz(func(t *testing.T, data []byte) {
		r := NewReader(bytes.NewReader(data))
		for {
			fr, err := r.Read()
			if err != nil {
				// Any decode error is acceptable on arbitrary input; a frame
				// alongside one is not, and a frame without the marker must
				// be refused as such.
				if fr != nil {
					t.Fatalf("Read returned frame %+v with error %v", fr, err)
				}
				if len(data) > 0 && data[0] != binaryMarker && !errors.Is(err, ErrNotBinary) {
					t.Fatalf("unmarked stream not refused as ErrNotBinary: %v", err)
				}
				return
			}
			// Clone first: fr aliases r's buffer, which the next Read (and
			// the nested reader below) would otherwise clobber.
			got := fr.Clone()
			var rt bytes.Buffer
			if err := NewWriter(&rt).Write(got); err != nil {
				t.Fatalf("re-encode failed: %v (frame %+v)", err, got)
			}
			back, err := NewReader(&rt).Read()
			if err != nil {
				t.Fatalf("re-decode failed: %v (frame %+v)", err, got)
			}
			back = back.Clone()
			normalizeFrame(got)
			normalizeFrame(back)
			if !reflect.DeepEqual(got, back) {
				t.Fatalf("round trip diverged:\n decoded:    %+v\n re-decoded: %+v", got, back)
			}
		}
	})
}

package objstore

import (
	"bytes"
	"reflect"
	"testing"
)

// putBody encodes objs as PutMulti does.
func putBody(objs []Object) ([]byte, error) {
	fields := make([][]byte, 0, 2*len(objs))
	for _, o := range objs {
		fields = append(fields, []byte(o.Key), o.Data)
	}
	return encodeBatch(nil, fields)
}

// FuzzGatewayBatch feeds arbitrary bytes to the gateway's batch decoders:
// the multi=put request, the multi=get and multi=exists key list, the
// multi=get response for n keys, and the flags-and-fields reader under all
// of them (the multi=exists response is n flags, no fields). None may panic;
// a malformed body is an error with no batch; a decoded batch re-encodes to
// bytes that decode to the same batch and re-encode identically, so hits
// stay non-nil (empty objects included) and misses stay nil.
func FuzzGatewayBatch(f *testing.F) {
	put, _ := putBody([]Object{{Key: "a", Data: []byte{0, 255}}, {Key: "empty"}})
	keys, _ := encodeBatch(nil, []string{"a", "", "b"})
	get, _ := encodeGetResult([][]byte{[]byte("x"), nil, {}})
	exists, _ := encodeBatch([]byte{1, 0}, []string(nil))
	f.Add(put, uint8(2))
	f.Add(keys, uint8(3))
	f.Add(get, uint8(3))
	f.Add(exists, uint8(2))
	f.Add([]byte(`[{"key":"k","data":"dg=="}]`), uint8(1)) // JSON-era put
	f.Add([]byte(`["k"]`), uint8(1))                       // JSON-era key list
	f.Add(put[1:], uint8(2))                               // no magic
	f.Add([]byte{batchMagic, 0x80}, uint8(0))              // truncated varint
	f.Add([]byte{batchMagic, 5, 'a'}, uint8(0))            // length past the end
	f.Add([]byte{batchMagic, 1, 'k'}, uint8(0))            // key without data
	f.Add([]byte{batchMagic, 0, 'x'}, uint8(1))            // trailing bytes after the flags
	f.Add([]byte{batchMagic, 1}, uint8(2))                 // fewer flags than keys
	f.Add([]byte{batchMagic, 1, 0, 0}, uint8(1))           // more hits than found flags
	f.Add([]byte{batchMagic, 2}, uint8(1))                 // flag out of range
	f.Add([]byte{batchMagic, 1, 0x80, 0x00}, uint8(1))     // overlong varint for an empty hit

	f.Fuzz(func(t *testing.T, body []byte, n uint8) {
		objs, err := decodeObjects(body)
		if err != nil && objs != nil {
			t.Fatalf("decodeObjects returned %d objects with error %v", len(objs), err)
		}
		if err == nil {
			enc, err := putBody(objs)
			if err != nil {
				t.Fatal(err)
			}
			again, err := decodeObjects(enc)
			if err != nil || !reflect.DeepEqual(again, objs) {
				t.Fatalf("objects round trip: %v, %v != %v", err, again, objs)
			}
			if enc2, _ := putBody(again); !bytes.Equal(enc2, enc) {
				t.Fatalf("objects re-encode differs")
			}
		}

		keys, err := decodeKeys(body)
		if err != nil && keys != nil {
			t.Fatalf("decodeKeys returned %d keys with error %v", len(keys), err)
		}
		if err == nil {
			enc, _ := encodeBatch(nil, keys)
			again, err := decodeKeys(enc)
			enc2, _ := encodeBatch(nil, again)
			if err != nil || !reflect.DeepEqual(again, keys) || !bytes.Equal(enc2, enc) {
				t.Fatalf("keys round trip: %v, %q != %q", err, again, keys)
			}
		}

		data, err := decodeGetResult(body, int(n))
		if err != nil && data != nil {
			t.Fatalf("decodeGetResult returned %d entries with error %v", len(data), err)
		}
		if err == nil {
			enc, _ := encodeGetResult(data)
			again, err := decodeGetResult(enc, int(n))
			enc2, _ := encodeGetResult(again)
			if err != nil || !reflect.DeepEqual(again, data) || !bytes.Equal(enc2, enc) {
				t.Fatalf("get result round trip: %v, %q != %q", err, again, data)
			}
		}

		flags, fields, err := decodeBatch(body, int(n))
		if err != nil && (flags != nil || fields != nil) {
			t.Fatalf("decodeBatch returned %d flags, %d fields with error %v", len(flags), len(fields), err)
		}
		if err == nil {
			enc, _ := encodeBatch(flags, fields)
			f2, fields2, err := decodeBatch(enc, int(n))
			if err != nil || !bytes.Equal(f2, flags) || !reflect.DeepEqual(fields2, fields) {
				t.Fatalf("batch round trip: %v, %v %q != %v %q", err, f2, fields2, flags, fields)
			}
		}
	})
}

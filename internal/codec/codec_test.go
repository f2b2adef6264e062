package codec

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"testing"
	"time"
)

// conformanceValue is the kitchen-sink payload the codec must round-trip.
type conformanceValue struct {
	S       string
	I       int
	I8      int8
	I64     int64
	U       uint64
	F       float64
	B       bool
	Bytes   []byte
	List    []string
	Ints    []int
	Map     map[string]int
	PtrMap  map[string]*inner // each value its own pointer after decoding
	Nested  inner
	PtrSet  *inner
	PtrNil  *inner
	When    time.Time
	Arr     [3]int
	ByteArr [4]byte
	Empty   []string       // empty, not nil: must stay empty
	NilList []int          // nil: must stay nil, not become empty
	NilMap  map[string]int // likewise
}

type inner struct {
	Name  string
	Count int
}

func sample() conformanceValue {
	return conformanceValue{
		S:       "héllo wörld",
		I:       -42,
		I8:      -8,
		I64:     math.MaxInt64,
		U:       math.MaxUint64,
		F:       3.14159,
		B:       true,
		Bytes:   []byte{0, 1, 2, 0xB2, 0xFF},
		List:    []string{"a", "", "c"},
		Ints:    []int{-1, 0, 1 << 40},
		Map:     map[string]int{"x": 1, "y": -2},
		PtrMap:  map[string]*inner{"p": {Name: "p", Count: 1}, "q": {Name: "q", Count: 2}},
		Nested:  inner{Name: "n", Count: 7},
		PtrSet:  &inner{Name: "p", Count: 9},
		When:    time.Date(2014, 12, 8, 9, 30, 0, 123456789, time.UTC),
		Arr:     [3]int{5, 6, 7},
		ByteArr: [4]byte{9, 8, 7, 6},
		Empty:   []string{},
	}
}

// codecUnderTest is what the conformance battery exercises.
type codecUnderTest interface {
	MarshalAppend(dst []byte, v any) ([]byte, error)
	Unmarshal(data []byte, v any) error
}

// jsonReference adapts encoding/json, the envelope codec Binary replaced,
// to the battery. It is not an RPC codec; it is the battery's reference:
// every guarantee the battery pins held for RPC callers under the old JSON
// default, so a case that fails on bin alone is a regression of the switch
// to one codec, not a battery bug.
type jsonReference struct{}

func (jsonReference) MarshalAppend(dst []byte, v any) ([]byte, error) {
	data, err := json.Marshal(v)
	if err != nil {
		return dst, err
	}
	return append(dst, data...), nil
}

func (jsonReference) Unmarshal(data []byte, v any) error { return json.Unmarshal(data, v) }

// TestConformance is the codec's contract suite: it must round-trip the
// kitchen-sink payload under the package's buffer-ownership rules, exactly
// as the JSON reference does.
func TestConformance(t *testing.T) {
	for _, tc := range []struct {
		name string
		c    codecUnderTest
	}{{"json", jsonReference{}}, {"bin", Default()}} {
		c := tc.c
		t.Run(tc.name, func(t *testing.T) {
			t.Run("round-trip", func(t *testing.T) {
				in := sample()
				data, err := c.MarshalAppend(nil, in)
				if err != nil {
					t.Fatalf("marshal: %v", err)
				}
				var out conformanceValue
				if err := c.Unmarshal(data, &out); err != nil {
					t.Fatalf("unmarshal: %v", err)
				}
				if !in.When.Equal(out.When) {
					t.Fatalf("time drift: %v != %v", out.When, in.When)
				}
				in.When, out.When = time.Time{}, time.Time{}
				if !reflect.DeepEqual(in, out) {
					t.Fatalf("round-trip mismatch:\n in: %+v\nout: %+v", in, out)
				}
			})

			t.Run("append-semantics", func(t *testing.T) {
				// MarshalAppend must extend dst, not replace it.
				prefix := []byte("prefix:")
				data, err := c.MarshalAppend(prefix, inner{Name: "a", Count: 1})
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.HasPrefix(data, prefix) {
					t.Fatalf("dst prefix lost: %q", data)
				}
				var out inner
				if err := c.Unmarshal(data[len(prefix):], &out); err != nil {
					t.Fatal(err)
				}
				if out.Name != "a" || out.Count != 1 {
					t.Fatalf("got %+v", out)
				}
			})

			t.Run("no-aliasing", func(t *testing.T) {
				// Decoded values must not alias the input buffer: clobbering
				// it after Unmarshal must not change the result.
				in := inner{Name: "alias-check", Count: 3}
				data, err := c.MarshalAppend(nil, in)
				if err != nil {
					t.Fatal(err)
				}
				type holder struct {
					Name  string
					Count int
				}
				var out holder
				if err := c.Unmarshal(data, &out); err != nil {
					t.Fatal(err)
				}
				for i := range data {
					data[i] = 0xAA
				}
				if out.Name != "alias-check" || out.Count != 3 {
					t.Fatalf("decoded value aliased input: %+v", out)
				}
			})

			t.Run("buffer-reuse", func(t *testing.T) {
				// The same backing buffer must be reusable across calls once
				// the previous encoding is consumed (the journal's pattern).
				var buf []byte
				for i := 0; i < 3; i++ {
					var err error
					buf, err = c.MarshalAppend(buf[:0], inner{Name: "r", Count: i})
					if err != nil {
						t.Fatal(err)
					}
					var out inner
					if err := c.Unmarshal(buf, &out); err != nil {
						t.Fatal(err)
					}
					if out.Count != i {
						t.Fatalf("iteration %d decoded %+v", i, out)
					}
				}
			})

			t.Run("empty-struct", func(t *testing.T) {
				// struct{}{} is the placeholder argument of no-arg calls.
				data, err := c.MarshalAppend(nil, struct{}{})
				if err != nil {
					t.Fatalf("marshal struct{}{}: %v", err)
				}
				var out struct{}
				if err := c.Unmarshal(data, &out); err != nil {
					t.Fatalf("unmarshal struct{}{}: %v", err)
				}
			})

			t.Run("scalars", func(t *testing.T) {
				data, err := c.MarshalAppend(nil, 12345)
				if err != nil {
					t.Fatal(err)
				}
				var n int
				if err := c.Unmarshal(data, &n); err != nil {
					t.Fatal(err)
				}
				if n != 12345 {
					t.Fatalf("got %d", n)
				}
			})
		})
	}
}

// TestBinaryStructCountRefusedOrZeroFilled pins the positional struct
// contract, which has no evolution path: an encoding with more fields than
// its target is refused, and one with fewer zero-fills the target's tail.
func TestBinaryStructCountRefusedOrZeroFilled(t *testing.T) {
	type v1 struct {
		A string
		B int
	}
	type v2 struct {
		A string
		B int
		C []string
		D *inner
	}
	c := Binary{}

	newData, err := c.MarshalAppend(nil, v2{A: "x", B: 2, C: []string{"c"}, D: &inner{Name: "d"}})
	if err != nil {
		t.Fatal(err)
	}
	var old v1
	if err := c.Unmarshal(newData, &old); err == nil {
		t.Fatalf("4-field encoding decoded into a 2-field struct: %+v", old)
	}
	// The same refusal from hand-built bytes: three fields into inner's two.
	if err := c.Unmarshal([]byte{bStruct, 3, 2, 'a', 2, 0}, new(inner)); err == nil {
		t.Fatal("3-field encoding decoded into inner")
	}

	oldData, err := c.MarshalAppend(nil, v1{A: "y", B: 3})
	if err != nil {
		t.Fatal(err)
	}
	newer := v2{C: []string{"stale"}, D: &inner{Name: "stale"}}
	if err := c.Unmarshal(oldData, &newer); err != nil {
		t.Fatalf("2-field encoding refused by a 4-field struct: %v", err)
	}
	if newer.A != "y" || newer.B != 3 || newer.C != nil || newer.D != nil {
		t.Fatalf("missing fields not zeroed: %+v", newer)
	}
}

// TestBinaryTopLevelKindMismatchFails pins what the one top-level tag
// buys: a value never decodes into a target of another kind, where the
// untagged varints below would silently misread it.
func TestBinaryTopLevelKindMismatchFails(t *testing.T) {
	c := Binary{}
	for _, tc := range []struct {
		name string
		in   any
		into any
	}{
		{"int into uint64", 7, new(uint64)},
		{"uint64 into int", uint64(7), new(int)},
		{"int into float64", 7, new(float64)},
		{"string into []byte", "ab", new([]byte)},
		{"struct into slice", inner{Name: "a"}, new([]inner)},
		{"slice into map", []string{"a"}, new(map[string]string)},
	} {
		data, err := c.MarshalAppend(nil, tc.in)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if err := c.Unmarshal(data, tc.into); err == nil {
			t.Errorf("%s: decoded as %v", tc.name, reflect.ValueOf(tc.into).Elem())
		}
	}
}

// TestBinaryMalformed feeds truncated and corrupt input; every case must
// fail cleanly, never panic or over-allocate.
func TestBinaryMalformed(t *testing.T) {
	c := Binary{}
	good, err := c.MarshalAppend(nil, sample())
	if err != nil {
		t.Fatal(err)
	}
	type withPtr struct{ P *int }
	cases := map[string]struct {
		data []byte
		into any
	}{
		"empty":            {[]byte{}, new(conformanceValue)},
		"unknown-tag":      {[]byte{0xEE}, new(conformanceValue)},
		"truncated-varint": {[]byte{bUint, 0x80, 0x80, 0x80}, new(uint64)},
		"overlong-varint":  {[]byte{bUint, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01}, new(uint64)},
		"int8-overflow":    {[]byte{bInt, 0x80, 0x02}, new(int8)},
		"huge-string":      {[]byte{bString, 0xFF, 0xFF, 0xFF, 0x7F, 'x'}, new(string)},
		"huge-list":        {[]byte{bList, 0xFF, 0xFF, 0xFF, 0x7F, 0}, new([]int)},
		"huge-map":         {[]byte{bMap, 0xFF, 0xFF, 0xFF, 0x7F, 0, 0}, new(map[string]int)},
		"short-float":      {[]byte{bFloat, 1, 2, 3}, new(float64)},
		"bad-bool":         {[]byte{bBool, 2}, new(bool)},
		"bad-presence":     {[]byte{bStruct, 1, 2, 2}, new(withPtr)},
		"array-length":     {[]byte{bList, 3, 2, 4}, new([3]int)},
		"trailing-bytes":   {append(append([]byte(nil), good...), 0x00), new(conformanceValue)},
	}
	for i := 1; i < len(good); i += 7 {
		cases[fmt.Sprintf("truncated-%d", i)] = struct {
			data []byte
			into any
		}{good[:i], new(conformanceValue)}
	}
	for name, tc := range cases {
		if err := c.Unmarshal(tc.data, tc.into); err == nil {
			t.Errorf("%s: malformed input accepted", name)
		}
	}
}

// TestBinaryRefusesInterfaces pins that interface values have no encoding:
// no wire type has such a field, and a positional decoder could not tell
// what an interface held. interface{} targets fail whatever the data, and
// interface values below the top level fail to encode.
func TestBinaryRefusesInterfaces(t *testing.T) {
	c := Binary{}
	data, err := c.MarshalAppend(nil, []string{"s"})
	if err != nil {
		t.Fatal(err)
	}
	var out any
	if err := c.Unmarshal(data, &out); err == nil {
		t.Fatalf("decoded into interface{}: %#v", out)
	}
	var list []any
	if err := c.Unmarshal(data, &list); err == nil {
		t.Fatalf("decoded into []interface{}: %#v", list)
	}
	type holder struct {
		Name string
		V    any
	}
	for _, v := range []any{[]any{int64(-5), "s"}, holder{Name: "h", V: 1}, map[string]any{"k": 1}} {
		if data, err := c.MarshalAppend(nil, v); err == nil {
			t.Errorf("%T encoded as %x", v, data)
		}
	}
	// The top-level value is always an interface{} argument: that is fine.
	if _, err := c.MarshalAppend(nil, any(holder{Name: "h"})); err != nil {
		t.Fatalf("top-level value refused: %v", err)
	}
}

// TestBinaryCycleFails ensures cyclic values error out instead of hanging.
func TestBinaryCycleFails(t *testing.T) {
	type node struct {
		Next *node
	}
	n := &node{}
	n.Next = n
	if _, err := (Binary{}).MarshalAppend(nil, n); err == nil {
		t.Fatal("cyclic value encoded")
	}
}

// TestBinaryLongField round-trips a field over 127 bytes, whose length
// takes a multi-byte uvarint, followed by another field.
func TestBinaryLongField(t *testing.T) {
	type big struct {
		Blob []byte
		Tail string
	}
	in := big{Blob: bytes.Repeat([]byte{0x5A}, 1<<15), Tail: "end"}
	data, err := Binary{}.MarshalAppend(nil, in)
	if err != nil {
		t.Fatal(err)
	}
	var out big
	if err := (Binary{}).Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Blob, in.Blob) || out.Tail != "end" {
		t.Fatal("long-field round trip failed")
	}
}

// TestBinaryCompact sanity-checks the size win over JSON, the envelope the
// codec replaced, on a typical request payload.
func TestBinaryCompact(t *testing.T) {
	v := sample()
	jdata, _ := json.Marshal(v)
	bdata, _ := Binary{}.MarshalAppend(nil, v)
	if len(bdata) >= len(jdata) {
		t.Fatalf("binary (%d bytes) not smaller than JSON (%d bytes)", len(bdata), len(jdata))
	}
}

// itemVersion has the fields of metastore.ItemVersion, which the WAL
// encodes with this codec (so the codec's tests cannot import it).
type itemVersion struct {
	Workspace, ItemID, Path string
	Version                 uint64
	Status                  int
	Size                    int64
	Chunks                  []string
	Checksum, DeviceID      string
	CommittedAt             time.Time
}

// TestBinaryTrailingZeroFields pins the struct layout: a field count, then
// the fields up to the last non-zero one, untagged and unframed; the
// decoder reads the rest back as zero.
func TestBinaryTrailingZeroFields(t *testing.T) {
	c := Binary{}
	t.Run("zero ItemVersion is tag and count", func(t *testing.T) {
		data, err := c.MarshalAppend(nil, itemVersion{})
		if err != nil {
			t.Fatal(err)
		}
		if want := []byte{bStruct, 0}; !bytes.Equal(data, want) {
			t.Fatalf("zero ItemVersion encodes as %x, want %x", data, want)
		}
	})
	t.Run("non-zero last field keeps every field", func(t *testing.T) {
		// inner{"a", 1}: tag, count 2, then the string (uvarint(len<<1),
		// bytes) and the zigzag int, nothing around either.
		want := []byte{bStruct, 2, 1 << 1, 'a', 2}
		data, err := c.MarshalAppend(nil, inner{Name: "a", Count: 1})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(data, want) {
			t.Fatalf("encodes as %x, want %x", data, want)
		}
		if data, _ = c.MarshalAppend(nil, inner{Name: "a"}); !bytes.Equal(data, []byte{bStruct, 1, 1 << 1, 'a'}) {
			t.Fatalf("zero trailing Count still sent: %x", data)
		}
	})
	t.Run("empty non-nil slice is still sent", func(t *testing.T) {
		type tail struct {
			Name string
			List []string
		}
		data, err := c.MarshalAppend(nil, tail{Name: "x", List: []string{}})
		if err != nil {
			t.Fatal(err)
		}
		var out tail
		if err := c.Unmarshal(data, &out); err != nil {
			t.Fatal(err)
		}
		if out.List == nil {
			t.Fatal("empty trailing slice decoded as nil")
		}
	})
	t.Run("omitted fields zero-fill a dirty target", func(t *testing.T) {
		data, err := c.MarshalAppend(nil, conformanceValue{S: "only"})
		if err != nil {
			t.Fatal(err)
		}
		out := sample()
		if err := c.Unmarshal(data, &out); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(out, conformanceValue{S: "only"}) {
			t.Fatalf("omitted fields kept stale values: %+v", out)
		}
	})
}

// TestBinaryHexStrings pins the hex rule: a non-empty, even-length string
// of lowercase hex travels as the bytes it spells, half its size, under a
// length with its low bit set, and decodes back to the identical string;
// every other string keeps its bytes under an even length.
func TestBinaryHexStrings(t *testing.T) {
	c := Binary{}
	sha1Hex := "da39a3ee5e6b4b0d3255bfef95601890afd80709"
	sha256Hex := "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
	for _, tc := range []struct {
		s   string
		hex bool
	}{
		{"", false}, {"0", false}, {"ab", true}, {"AB", false}, {"aB", false},
		{"0g", false}, {"w00-d05", false}, {sha1Hex, true}, {sha256Hex, true},
	} {
		data, err := c.MarshalAppend(nil, tc.s)
		if err != nil {
			t.Fatalf("%q: %v", tc.s, err)
		}
		if tc.hex {
			if data[0] != bString || data[1] != byte(len(tc.s)/2<<1|1) || len(data) != 2+len(tc.s)/2 {
				t.Errorf("%q encodes as %x, want hex bit and %d bytes", tc.s, data, 2+len(tc.s)/2)
			}
		} else if want := append([]byte{bString, byte(len(tc.s) << 1)}, tc.s...); !bytes.Equal(data, want) {
			t.Errorf("%q encodes as %x, want %x", tc.s, data, want)
		}
		var typed string
		if err := c.Unmarshal(data, &typed); err != nil || typed != tc.s {
			t.Errorf("%q decodes into string as %q (%v)", tc.s, typed, err)
		}
	}
	if data, _ := c.MarshalAppend(nil, sha1Hex); len(data) != 22 {
		t.Fatalf("40-char hex string encodes in %d B, want 22 (42 as text)", len(data))
	}
}

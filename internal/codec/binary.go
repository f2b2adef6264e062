package codec

import (
	"encoding"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"reflect"
	"sync"
)

// Binary is the compact reflection codec — the paper's Kryo analogue, laid
// out the way Kryo's FieldSerializer lays out an object. The top-level value
// opens with one kind tag; below it nothing carries a tag or a length of its
// own, because the decoder walks the target type and knows what comes next:
//
//	bool             1 byte
//	int              zigzag varint
//	uint             uvarint
//	float            8-byte big-endian IEEE 754 (-0 arrives as +0)
//	string           uvarint(len<<1 | hex) + bytes; hex is 1 for a non-empty,
//	                 even-length string of [0-9a-f], and the bytes are then
//	                 the len bytes it spells
//	bytes, slice     uvarint(count+1) + elements; 0 means nil, so nil and
//	                 empty stay distinct
//	array, map       uvarint(count+1) + elements (a map: key, value, ...)
//	pointer          presence byte (0 or 1), then the value
//	struct           uvarint(n), then the first n exported fields in
//	                 declaration order, where n stops at the last field that
//	                 is not reflect-zero; the decoder zero-fills the rest
//	marshaled        uvarint length + encoding.BinaryMarshaler output
//
// There is no evolution path: a struct encoding names no fields, so a
// decoder reads it only into the struct it was written from. A count above
// the target's field count is refused, a top-level kind other than the
// target's is refused (an int never decodes into a uint64), and so is any
// interface value below the top level and any interface{} target. A layout
// change therefore bumps the wire marker, as a frame change does. Every
// value takes at least one byte, so a count above the bytes left fails
// before anything is allocated. An empty non-nil slice or map is not zero,
// so it is still sent and stays non-nil. Types whose value implements
// encoding.BinaryMarshaler (and whose pointer implements BinaryUnmarshaler),
// notably time.Time, use their own representation. Only exported fields
// travel.
type Binary struct{}

// Kind tags: the one byte that opens every top-level value.
const (
	bNil = iota + 1
	bBool
	bInt
	bUint
	bFloat
	bString
	bBytes
	bList
	bMap
	bStruct
	bMarshaled
)

// maxDepth bounds encode and decode recursion: cyclic values fail instead
// of hanging, and fuzzed deeply-nested input fails instead of exhausting
// the stack.
const maxDepth = 1000

var errTooDeep = errors.New("codec: binary value nesting too deep")

var binaryMarshalerType = reflect.TypeOf((*encoding.BinaryMarshaler)(nil)).Elem()

// marshaled reports whether values of the concrete type t travel as their
// MarshalBinary output. NumMethod first: most types have no methods, and
// it is far cheaper than Implements.
func marshaled(t reflect.Type) bool {
	return t.NumMethod() > 0 && t.Implements(binaryMarshalerType)
}

// fieldCache maps a struct type to the indices of its exported fields.
var fieldCache sync.Map // reflect.Type -> []int

func exportedFields(t reflect.Type) []int {
	if cached, ok := fieldCache.Load(t); ok {
		return cached.([]int)
	}
	var idx []int
	for i := 0; i < t.NumField(); i++ {
		if t.Field(i).IsExported() {
			idx = append(idx, i)
		}
	}
	fieldCache.Store(t, idx)
	return idx
}

// kindTag is the tag a top-level value of type t opens with; a pointer
// takes its element's.
func kindTag(t reflect.Type) (byte, error) {
	for t.Kind() == reflect.Pointer {
		t = t.Elem()
	}
	if t.Kind() != reflect.Interface && marshaled(t) {
		return bMarshaled, nil
	}
	switch t.Kind() {
	case reflect.Bool:
		return bBool, nil
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return bInt, nil
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		return bUint, nil
	case reflect.Float32, reflect.Float64:
		return bFloat, nil
	case reflect.String:
		return bString, nil
	case reflect.Slice:
		if t.Elem().Kind() == reflect.Uint8 {
			return bBytes, nil
		}
		return bList, nil
	case reflect.Array:
		return bList, nil
	case reflect.Map:
		return bMap, nil
	case reflect.Struct:
		return bStruct, nil
	}
	return 0, fmt.Errorf("codec: binary has no encoding for %s", t)
}

// MarshalAppend appends the binary encoding of v to dst: its kind tag, then
// its positional encoding. A nil v, or a nil pointer, is bNil alone.
func (Binary) MarshalAppend(dst []byte, v any) ([]byte, error) {
	rv := reflect.ValueOf(v)
	for rv.Kind() == reflect.Pointer && !rv.IsNil() {
		rv = rv.Elem()
	}
	if !rv.IsValid() || rv.Kind() == reflect.Pointer {
		return append(dst, bNil), nil
	}
	tag, err := kindTag(rv.Type())
	if err != nil {
		return dst, err
	}
	return appendValue(append(dst, tag), rv, 0)
}

func appendValue(dst []byte, v reflect.Value, depth int) ([]byte, error) {
	if depth > maxDepth {
		return dst, errTooDeep
	}
	t := v.Type()
	switch v.Kind() {
	case reflect.Pointer:
		if v.IsNil() {
			return append(dst, 0), nil
		}
		return appendValue(append(dst, 1), v.Elem(), depth+1)
	case reflect.Interface:
		return dst, fmt.Errorf("codec: binary cannot encode interface value of %s", t)
	}
	if marshaled(t) {
		data, err := v.Interface().(encoding.BinaryMarshaler).MarshalBinary()
		if err != nil {
			return dst, fmt.Errorf("codec: binary marshal %s: %w", t, err)
		}
		dst = binary.AppendUvarint(dst, uint64(len(data)))
		return append(dst, data...), nil
	}
	switch v.Kind() {
	case reflect.Bool:
		if v.Bool() {
			return append(dst, 1), nil
		}
		return append(dst, 0), nil
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return binary.AppendVarint(dst, v.Int()), nil
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		return binary.AppendUvarint(dst, v.Uint()), nil
	case reflect.Float32, reflect.Float64:
		return binary.BigEndian.AppendUint64(dst, math.Float64bits(v.Float())), nil
	case reflect.String:
		return appendString(dst, v.String()), nil
	case reflect.Slice:
		if v.IsNil() {
			return append(dst, 0), nil // nil decodes back to nil, not empty
		}
		if t.Elem().Kind() == reflect.Uint8 {
			dst = binary.AppendUvarint(dst, uint64(v.Len())+1)
			return append(dst, v.Bytes()...), nil
		}
		fallthrough
	case reflect.Array:
		n := v.Len()
		dst = binary.AppendUvarint(dst, uint64(n)+1)
		var err error
		for i := 0; i < n; i++ {
			if dst, err = appendValue(dst, v.Index(i), depth+1); err != nil {
				return dst, err
			}
		}
		return dst, nil
	case reflect.Map:
		if v.IsNil() {
			return append(dst, 0), nil
		}
		dst = binary.AppendUvarint(dst, uint64(v.Len())+1)
		iter := v.MapRange()
		var err error
		for iter.Next() {
			if dst, err = appendValue(dst, iter.Key(), depth+1); err != nil {
				return dst, err
			}
			if dst, err = appendValue(dst, iter.Value(), depth+1); err != nil {
				return dst, err
			}
		}
		return dst, nil
	case reflect.Struct:
		fields := exportedFields(t)
		for len(fields) > 0 && v.Field(fields[len(fields)-1]).IsZero() {
			fields = fields[:len(fields)-1] // the decoder zero-fills them
		}
		dst = binary.AppendUvarint(dst, uint64(len(fields)))
		var err error
		for _, fi := range fields {
			if dst, err = appendValue(dst, v.Field(fi), depth+1); err != nil {
				return dst, err
			}
		}
		return dst, nil
	default:
		return dst, fmt.Errorf("codec: binary cannot encode %s", t)
	}
}

// appendString writes s as uvarint(len<<1) + s, or as a hex string.
func appendString(dst []byte, s string) []byte {
	if out, ok := appendHex(dst, s); ok {
		return out
	}
	dst = binary.AppendUvarint(dst, uint64(len(s))<<1)
	return append(dst, s...)
}

// appendHex writes s as uvarint(len/2<<1 | 1) + the bytes its pairs spell
// if it is non-empty, even-length lowercase hex — the ids, fingerprints and
// checksums every commit carries. Otherwise it reports false and leaves
// dst's length as it was.
func appendHex(dst []byte, s string) ([]byte, bool) {
	if len(s) == 0 || len(s)%2 != 0 {
		return dst, false
	}
	start := len(dst)
	dst = binary.AppendUvarint(dst, uint64(len(s)/2)<<1|1)
	for i := 0; i < len(s); i += 2 {
		hi, lo := unhex[s[i]], unhex[s[i+1]]
		if hi|lo > 0xf {
			return dst[:start], false
		}
		dst = append(dst, hi<<4|lo)
	}
	return dst, true
}

// unhex maps a lowercase hex digit to its value and every other byte to 0xff.
var unhex = func() (t [256]byte) {
	for i := range t {
		t[i] = 0xff
	}
	for i, c := range "0123456789abcdef" {
		t[c] = byte(i)
	}
	return t
}()

// hexString spells raw in lowercase hex; up to a SHA-256 it allocates
// only the string.
func hexString(raw []byte) string {
	var tmp [64]byte
	return string(hex.AppendEncode(tmp[:0], raw))
}

// Unmarshal decodes binary data into v, which must be a non-nil pointer to
// a value of the kind data was encoded from. Decoded values never alias
// data.
func (Binary) Unmarshal(data []byte, v any) error {
	rv := reflect.ValueOf(v)
	if rv.Kind() != reflect.Pointer || rv.IsNil() {
		return errors.New("codec: binary unmarshal target must be a non-nil pointer")
	}
	if len(data) == 0 {
		return errShortValue
	}
	target := rv.Elem()
	want, err := kindTag(target.Type())
	if err != nil {
		return err
	}
	rest := data[1:]
	switch data[0] {
	case bNil:
		target.Set(reflect.Zero(target.Type()))
	case want:
		for target.Kind() == reflect.Pointer {
			if target.IsNil() {
				target.Set(reflect.New(target.Type().Elem()))
			}
			target = target.Elem()
		}
		if rest, err = decodeValue(rest, target, 0); err != nil {
			return err
		}
	default:
		return fmt.Errorf("codec: binary tag %d cannot decode into %s", data[0], target.Type())
	}
	if len(rest) != 0 {
		return fmt.Errorf("codec: %d trailing bytes after binary value", len(rest))
	}
	return nil
}

var errShortValue = errors.New("codec: truncated binary value")

// uvarint decodes a uvarint, rejecting truncated and overlong encodings.
func uvarint(data []byte) (uint64, []byte, error) {
	x, n := binary.Uvarint(data)
	if n <= 0 {
		return 0, nil, fmt.Errorf("codec: malformed varint: %w", errShortValue)
	}
	return x, data[n:], nil
}

// bounded checks a length or count against the remaining input, so a
// corrupt one fails before any allocation sized by it.
func bounded(x uint64, rest []byte) (int, error) {
	if x > uint64(len(rest)) {
		return 0, fmt.Errorf("codec: binary length %d exceeds %d remaining bytes", x, len(rest))
	}
	return int(x), nil
}

// count reads uvarint(count+1) and returns -1 for nil. Every value takes
// at least one byte, so count is bounded by the bytes left.
func count(data []byte) (int, []byte, error) {
	x, rest, err := uvarint(data)
	if err != nil || x == 0 {
		return -1, rest, err
	}
	n, err := bounded(x-1, rest)
	return n, rest, err
}

func decodeValue(data []byte, v reflect.Value, depth int) ([]byte, error) {
	if depth > maxDepth {
		return nil, errTooDeep
	}
	if len(data) == 0 {
		return nil, errShortValue
	}
	t := v.Type()
	switch v.Kind() {
	case reflect.Pointer:
		switch data[0] {
		case 0:
			v.Set(reflect.Zero(t))
			return data[1:], nil
		case 1:
			if v.IsNil() {
				v.Set(reflect.New(t.Elem()))
			}
			return decodeValue(data[1:], v.Elem(), depth+1)
		}
		return nil, fmt.Errorf("codec: presence byte %d for %s", data[0], t)
	case reflect.Interface:
		return nil, fmt.Errorf("codec: binary cannot decode into interface %s", t)
	}
	if marshaled(t) {
		return decodeMarshaled(data, v)
	}
	switch v.Kind() {
	case reflect.Bool:
		if data[0] > 1 {
			return nil, fmt.Errorf("codec: bool byte %d", data[0])
		}
		v.SetBool(data[0] == 1)
		return data[1:], nil
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		i, n := binary.Varint(data)
		if n <= 0 {
			return nil, fmt.Errorf("codec: malformed varint: %w", errShortValue)
		}
		if v.OverflowInt(i) {
			return nil, fmt.Errorf("codec: %d overflows %s", i, t)
		}
		v.SetInt(i)
		return data[n:], nil
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		u, rest, err := uvarint(data)
		if err != nil {
			return nil, err
		}
		if v.OverflowUint(u) {
			return nil, fmt.Errorf("codec: %d overflows %s", u, t)
		}
		v.SetUint(u)
		return rest, nil
	case reflect.Float32, reflect.Float64:
		if len(data) < 8 {
			return nil, errShortValue
		}
		f := math.Float64frombits(binary.BigEndian.Uint64(data))
		if f == 0 {
			f = 0 // -0 is reflect-zero, so a trailing one would not be sent
		}
		v.SetFloat(f)
		return data[8:], nil
	case reflect.String:
		x, rest, err := uvarint(data)
		if err != nil {
			return nil, err
		}
		n, err := bounded(x>>1, rest)
		if err != nil {
			return nil, err
		}
		if x&1 == 1 {
			v.SetString(hexString(rest[:n]))
		} else {
			v.SetString(string(rest[:n]))
		}
		return rest[n:], nil
	case reflect.Slice, reflect.Array:
		return decodeList(data, v, depth)
	case reflect.Map:
		return decodeMap(data, v, depth)
	case reflect.Struct:
		return decodeStruct(data, v, depth)
	default:
		return nil, fmt.Errorf("codec: binary cannot decode into %s", t)
	}
}

func decodeList(data []byte, v reflect.Value, depth int) ([]byte, error) {
	n, data, err := count(data)
	if err != nil {
		return nil, err
	}
	t := v.Type()
	switch {
	case v.Kind() == reflect.Array:
		if n != v.Len() {
			return nil, fmt.Errorf("codec: %d elements into %s", n, t)
		}
	case n < 0:
		v.Set(reflect.Zero(t))
		return data, nil
	case t.Elem().Kind() == reflect.Uint8:
		v.SetBytes(append([]byte{}, data[:n]...))
		return data[n:], nil
	default:
		v.Set(reflect.MakeSlice(t, n, n))
	}
	for i := 0; i < n; i++ {
		if data, err = decodeValue(data, v.Index(i), depth+1); err != nil {
			return nil, err
		}
	}
	return data, nil
}

func decodeMap(data []byte, v reflect.Value, depth int) ([]byte, error) {
	n, data, err := count(data)
	if err != nil {
		return nil, err
	}
	t := v.Type()
	if n < 0 {
		v.Set(reflect.Zero(t))
		return data, nil
	}
	v.Set(reflect.MakeMapWithSize(t, n))
	key := reflect.New(t.Key()).Elem()
	val := reflect.New(t.Elem()).Elem()
	for i := 0; i < n; i++ {
		key.SetZero() // a pointer left from the last pair must not be reused
		val.SetZero()
		if data, err = decodeValue(data, key, depth+1); err != nil {
			return nil, err
		}
		if data, err = decodeValue(data, val, depth+1); err != nil {
			return nil, err
		}
		v.SetMapIndex(key, val)
	}
	return data, nil
}

func decodeStruct(data []byte, v reflect.Value, depth int) ([]byte, error) {
	n, data, err := uvarint(data)
	if err != nil {
		return nil, err
	}
	t := v.Type()
	fields := exportedFields(t)
	if n > uint64(len(fields)) {
		return nil, fmt.Errorf("codec: %d fields into %s, which has %d", n, t, len(fields))
	}
	v.Set(reflect.Zero(t)) // fields past n decode as zero
	for _, fi := range fields[:n] {
		if data, err = decodeValue(data, v.Field(fi), depth+1); err != nil {
			return nil, err
		}
	}
	return data, nil
}

// decodeMarshaled reads a length-prefixed BinaryMarshaler encoding into
// the addressable v, whose pointer must implement BinaryUnmarshaler.
func decodeMarshaled(data []byte, v reflect.Value) ([]byte, error) {
	x, rest, err := uvarint(data)
	if err != nil {
		return nil, err
	}
	n, err := bounded(x, rest)
	if err != nil {
		return nil, err
	}
	um, ok := v.Addr().Interface().(encoding.BinaryUnmarshaler)
	if !ok {
		return nil, fmt.Errorf("codec: cannot decode marshaled value into %s", v.Type())
	}
	// BinaryUnmarshaler implementations may retain their input; hand over a
	// copy so the no-aliasing contract holds.
	if err := um.UnmarshalBinary(append([]byte(nil), rest[:n]...)); err != nil {
		return nil, fmt.Errorf("codec: binary unmarshal %s: %w", v.Type(), err)
	}
	return rest[n:], nil
}

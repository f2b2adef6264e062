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

// Binary is the compact reflection codec — the paper's Kryo analogue. Every
// value is a one-byte type tag followed by a varint-framed payload:
//
//	nil/false/true   tag only (nil covers nil slices and maps)
//	int              zigzag varint
//	uint             uvarint
//	float            8-byte big-endian IEEE 754
//	string/bytes     uvarint length + raw bytes
//	hex string       uvarint length + the bytes the hex spells, for a
//	                 non-empty, even-length string of [0-9a-f] only
//	list             uvarint count + elements
//	map              uvarint count + alternating key/value
//	struct           uvarint field count, then per exported field (in
//	                 declaration order) a uvarint byte length + encoding,
//	                 up to the last field that is not reflect-zero
//	marshaled        uvarint length + encoding.BinaryMarshaler output
//
// The per-field byte length is what buys schema evolution: a decoder built
// against an older struct skips unknown trailing fields, and missing
// trailing fields decode as zero values — an append-only contract, so
// fields may be added at the end of a struct but never reordered or
// removed. The encoder leans on the same rule: it stops at the last
// exported field that is not reflect.Value.IsZero, and any decoder reads
// the omitted tail back as zero. An empty non-nil slice or map is not zero,
// so it is still sent and stays non-nil; a negative-zero float counts as
// zero, so a trailing -0.0 arrives as +0. Types implementing
// encoding.BinaryMarshaler/BinaryUnmarshaler
// (notably time.Time) use their own representation. Only exported fields
// travel.
type Binary struct{}

const (
	bNil = iota + 1
	bFalse
	bTrue
	bInt
	bUint
	bFloat
	bString
	bBytes
	bList
	bMap
	bStruct
	bMarshaled
	bHex
)

// maxDepth bounds encode and decode recursion: cyclic values fail instead
// of hanging, and fuzzed deeply-nested input fails instead of exhausting
// the stack.
const maxDepth = 1000

var errTooDeep = errors.New("codec: binary value nesting too deep")

var (
	binaryMarshalerType   = reflect.TypeOf((*encoding.BinaryMarshaler)(nil)).Elem()
	binaryUnmarshalerType = reflect.TypeOf((*encoding.BinaryUnmarshaler)(nil)).Elem()
)

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

// MarshalAppend appends the binary encoding of v to dst.
func (Binary) MarshalAppend(dst []byte, v any) ([]byte, error) {
	return appendValue(dst, reflect.ValueOf(v), 0)
}

func appendValue(dst []byte, v reflect.Value, depth int) ([]byte, error) {
	if depth > maxDepth {
		return dst, errTooDeep
	}
	if !v.IsValid() {
		return append(dst, bNil), nil
	}
	t := v.Type()
	switch v.Kind() {
	case reflect.Interface, reflect.Pointer:
		if v.IsNil() {
			return append(dst, bNil), nil
		}
		if v.Kind() == reflect.Pointer && t.Implements(binaryMarshalerType) {
			return appendMarshaled(dst, v)
		}
		return appendValue(dst, v.Elem(), depth+1)
	}
	if t.Implements(binaryMarshalerType) {
		return appendMarshaled(dst, v)
	}
	switch v.Kind() {
	case reflect.Bool:
		if v.Bool() {
			return append(dst, bTrue), nil
		}
		return append(dst, bFalse), nil
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		dst = append(dst, bInt)
		return binary.AppendVarint(dst, v.Int()), nil
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		dst = append(dst, bUint)
		return binary.AppendUvarint(dst, v.Uint()), nil
	case reflect.Float32, reflect.Float64:
		dst = append(dst, bFloat)
		return binary.BigEndian.AppendUint64(dst, math.Float64bits(v.Float())), nil
	case reflect.String:
		s := v.String()
		if out, ok := appendHex(dst, s); ok {
			return out, nil
		}
		dst = append(dst, bString)
		dst = binary.AppendUvarint(dst, uint64(len(s)))
		return append(dst, s...), nil
	case reflect.Slice:
		if v.IsNil() {
			return append(dst, bNil), nil // a nil list decodes back to nil, not empty
		}
		if t.Elem().Kind() == reflect.Uint8 {
			dst = append(dst, bBytes)
			dst = binary.AppendUvarint(dst, uint64(v.Len()))
			return append(dst, v.Bytes()...), nil
		}
		fallthrough
	case reflect.Array:
		n := v.Len()
		dst = append(dst, bList)
		dst = binary.AppendUvarint(dst, uint64(n))
		var err error
		for i := 0; i < n; i++ {
			if dst, err = appendValue(dst, v.Index(i), depth+1); err != nil {
				return dst, err
			}
		}
		return dst, nil
	case reflect.Map:
		if v.IsNil() {
			return append(dst, bNil), nil
		}
		dst = append(dst, bMap)
		dst = binary.AppendUvarint(dst, uint64(v.Len()))
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
		dst = append(dst, bStruct)
		dst = binary.AppendUvarint(dst, uint64(len(fields)))
		for _, fi := range fields {
			var err error
			if dst, err = appendLengthPrefixed(dst, v.Field(fi), depth+1); err != nil {
				return dst, err
			}
		}
		return dst, nil
	default:
		return dst, fmt.Errorf("codec: binary cannot encode %s", t)
	}
}

// appendHex encodes s under bHex if it is non-empty, even-length lowercase
// hex — the ids, fingerprints and checksums every commit carries — decoding
// the pairs straight into dst. Otherwise it reports false and leaves dst's
// length as it was.
func appendHex(dst []byte, s string) ([]byte, bool) {
	if len(s) == 0 || len(s)%2 != 0 {
		return dst, false
	}
	start := len(dst)
	dst = append(dst, bHex)
	dst = binary.AppendUvarint(dst, uint64(len(s)/2))
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

// appendLengthPrefixed encodes v prefixed by its byte length. Field
// encodings are almost always under 128 bytes, so a single placeholder byte
// is reserved and patched in place; longer encodings shift right to make
// room for the wider varint.
func appendLengthPrefixed(dst []byte, v reflect.Value, depth int) ([]byte, error) {
	lenPos := len(dst)
	dst = append(dst, 0)
	start := len(dst)
	dst, err := appendValue(dst, v, depth)
	if err != nil {
		return dst, err
	}
	n := len(dst) - start
	if n < 0x80 {
		dst[lenPos] = byte(n)
		return dst, nil
	}
	var tmp [binary.MaxVarintLen64]byte
	w := binary.PutUvarint(tmp[:], uint64(n))
	dst = append(dst, tmp[1:w]...) // grow by the extra varint width
	copy(dst[start+w-1:], dst[start:start+n])
	copy(dst[lenPos:], tmp[:w])
	return dst, nil
}

func appendMarshaled(dst []byte, v reflect.Value) ([]byte, error) {
	data, err := v.Interface().(encoding.BinaryMarshaler).MarshalBinary()
	if err != nil {
		return dst, fmt.Errorf("codec: binary marshal %s: %w", v.Type(), err)
	}
	dst = append(dst, bMarshaled)
	dst = binary.AppendUvarint(dst, uint64(len(data)))
	return append(dst, data...), nil
}

// Unmarshal decodes binary data into v, which must be a non-nil pointer.
// Decoded values never alias data.
func (Binary) Unmarshal(data []byte, v any) error {
	rv := reflect.ValueOf(v)
	if rv.Kind() != reflect.Pointer || rv.IsNil() {
		return errors.New("codec: binary unmarshal target must be a non-nil pointer")
	}
	rest, err := decodeValue(data, rv.Elem(), 0)
	if err != nil {
		return err
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

// lengthPrefix reads a uvarint length and checks it against the remaining
// input, so corrupt lengths fail before any allocation sized by them.
func lengthPrefix(data []byte) (int, []byte, error) {
	x, rest, err := uvarint(data)
	if err != nil {
		return 0, nil, err
	}
	if x > uint64(len(rest)) {
		return 0, nil, fmt.Errorf("codec: binary length %d exceeds %d remaining bytes", x, len(rest))
	}
	return int(x), rest, nil
}

func decodeValue(data []byte, v reflect.Value, depth int) ([]byte, error) {
	if len(data) == 0 {
		return nil, errShortValue
	}
	return decodeTagged(data[0], data[1:], v, depth)
}

func decodeTagged(tag byte, data []byte, v reflect.Value, depth int) ([]byte, error) {
	if depth > maxDepth {
		return nil, errTooDeep
	}
	t := v.Type()
	if tag == bNil {
		v.Set(reflect.Zero(t))
		return data, nil
	}
	if v.Kind() == reflect.Pointer {
		if v.IsNil() {
			v.Set(reflect.New(t.Elem()))
		}
		if tag == bMarshaled && t.Implements(binaryUnmarshalerType) {
			return decodeMarshaled(data, v)
		}
		return decodeTagged(tag, data, v.Elem(), depth+1)
	}
	if tag == bMarshaled {
		if v.CanAddr() && reflect.PointerTo(t).Implements(binaryUnmarshalerType) {
			return decodeMarshaled(data, v.Addr())
		}
		return nil, fmt.Errorf("codec: cannot decode marshaled value into %s", t)
	}
	if v.Kind() == reflect.Interface {
		if t.NumMethod() != 0 {
			return nil, fmt.Errorf("codec: cannot decode into non-empty interface %s", t)
		}
		g, rest, err := decodeGeneric(tag, data, depth)
		if err != nil {
			return nil, err
		}
		v.Set(reflect.ValueOf(g))
		return rest, nil
	}

	switch tag {
	case bFalse, bTrue:
		if v.Kind() != reflect.Bool {
			return nil, decodeMismatch(tag, t)
		}
		v.SetBool(tag == bTrue)
		return data, nil
	case bInt, bUint:
		return decodeNumeric(tag, data, v)
	case bFloat:
		if len(data) < 8 {
			return nil, errShortValue
		}
		f := math.Float64frombits(binary.BigEndian.Uint64(data))
		switch v.Kind() {
		case reflect.Float32, reflect.Float64:
			v.SetFloat(f)
		default:
			return nil, decodeMismatch(tag, t)
		}
		return data[8:], nil
	case bString, bBytes, bHex:
		n, rest, err := lengthPrefix(data)
		if err != nil {
			return nil, err
		}
		raw, rest := rest[:n], rest[n:]
		switch {
		case v.Kind() == reflect.String && tag == bHex:
			v.SetString(hexString(raw))
		case v.Kind() == reflect.String:
			v.SetString(string(raw))
		case tag == bHex:
			return nil, decodeMismatch(tag, t)
		case v.Kind() == reflect.Slice && t.Elem().Kind() == reflect.Uint8:
			v.SetBytes(append([]byte(nil), raw...))
		case v.Kind() == reflect.Array && t.Elem().Kind() == reflect.Uint8:
			if n != v.Len() {
				return nil, fmt.Errorf("codec: %d bytes into [%d]byte", n, v.Len())
			}
			reflect.Copy(v, reflect.ValueOf(raw))
		default:
			return nil, decodeMismatch(tag, t)
		}
		return rest, nil
	case bList:
		return decodeList(data, v, depth)
	case bMap:
		return decodeMap(data, v, depth)
	case bStruct:
		return decodeStruct(data, v, depth)
	default:
		return nil, fmt.Errorf("codec: unknown binary tag %d", tag)
	}
}

func decodeMismatch(tag byte, t reflect.Type) error {
	return fmt.Errorf("codec: binary tag %d cannot decode into %s", tag, t)
}

// decodeNumeric handles the int/uint tags with lenient cross-decoding: an
// encoder that widened or re-signed a field stays readable as long as the
// value fits the target.
func decodeNumeric(tag byte, data []byte, v reflect.Value) ([]byte, error) {
	var (
		i    int64
		u    uint64
		rest []byte
	)
	if tag == bInt {
		var n int
		i, n = binary.Varint(data)
		if n <= 0 {
			return nil, fmt.Errorf("codec: malformed varint: %w", errShortValue)
		}
		rest = data[n:]
		u = uint64(i)
	} else {
		var err error
		u, rest, err = uvarint(data)
		if err != nil {
			return nil, err
		}
		i = int64(u)
	}
	switch v.Kind() {
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		if tag == bUint && u > math.MaxInt64 {
			return nil, fmt.Errorf("codec: %d overflows %s", u, v.Type())
		}
		if v.OverflowInt(i) {
			return nil, fmt.Errorf("codec: %d overflows %s", i, v.Type())
		}
		v.SetInt(i)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		if tag == bInt && i < 0 {
			return nil, fmt.Errorf("codec: %d into unsigned %s", i, v.Type())
		}
		if v.OverflowUint(u) {
			return nil, fmt.Errorf("codec: %d overflows %s", u, v.Type())
		}
		v.SetUint(u)
	case reflect.Float32, reflect.Float64:
		if tag == bInt {
			v.SetFloat(float64(i))
		} else {
			v.SetFloat(float64(u))
		}
	default:
		return nil, decodeMismatch(tag, v.Type())
	}
	return rest, nil
}

func decodeList(data []byte, v reflect.Value, depth int) ([]byte, error) {
	count, data, err := lengthPrefix(data) // each element is >= 1 byte
	if err != nil {
		return nil, err
	}
	t := v.Type()
	switch v.Kind() {
	case reflect.Slice:
		v.Set(reflect.MakeSlice(t, count, count))
	case reflect.Array:
		if count > v.Len() {
			return nil, fmt.Errorf("codec: %d elements into %s", count, t)
		}
		v.Set(reflect.Zero(t))
	default:
		return nil, decodeMismatch(bList, t)
	}
	for i := 0; i < count; i++ {
		if data, err = decodeValue(data, v.Index(i), depth+1); err != nil {
			return nil, err
		}
	}
	return data, nil
}

func decodeMap(data []byte, v reflect.Value, depth int) ([]byte, error) {
	count, data, err := lengthPrefix(data) // each pair is >= 2 bytes, so count can't exceed len
	if err != nil {
		return nil, err
	}
	t := v.Type()
	if v.Kind() != reflect.Map {
		return nil, decodeMismatch(bMap, t)
	}
	v.Set(reflect.MakeMapWithSize(t, count))
	key := reflect.New(t.Key()).Elem()
	val := reflect.New(t.Elem()).Elem()
	for i := 0; i < count; i++ {
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
	count, data, err := lengthPrefix(data)
	if err != nil {
		return nil, err
	}
	t := v.Type()
	if v.Kind() != reflect.Struct {
		return nil, decodeMismatch(bStruct, t)
	}
	v.Set(reflect.Zero(t)) // missing trailing fields decode as zero
	fields := exportedFields(t)
	for i := 0; i < count; i++ {
		var n int
		if n, data, err = lengthPrefix(data); err != nil {
			return nil, err
		}
		field, rest := data[:n], data[n:]
		if i < len(fields) {
			left, err := decodeValue(field, v.Field(fields[i]), depth+1)
			if err != nil {
				return nil, err
			}
			if len(left) != 0 {
				return nil, fmt.Errorf("codec: %d stray bytes inside field %s", len(left), t.Field(fields[i]).Name)
			}
		}
		// Fields beyond the ones this build knows are skipped: that is the
		// append-only schema-evolution contract.
		data = rest
	}
	return data, nil
}

func decodeMarshaled(data []byte, ptr reflect.Value) ([]byte, error) {
	n, rest, err := lengthPrefix(data)
	if err != nil {
		return nil, err
	}
	um := ptr.Interface().(encoding.BinaryUnmarshaler)
	// BinaryUnmarshaler implementations may retain their input; hand over a
	// copy so the no-aliasing contract holds.
	if err := um.UnmarshalBinary(append([]byte(nil), rest[:n]...)); err != nil {
		return nil, fmt.Errorf("codec: binary unmarshal %s: %w", ptr.Type().Elem(), err)
	}
	return rest[n:], nil
}

// decodeGeneric decodes a value into its natural Go shape for interface{}
// targets: nil, bool, int64, uint64, float64, string, []byte, []any,
// map[any]any; struct and marshaled payloads surface as []any and []byte.
func decodeGeneric(tag byte, data []byte, depth int) (any, []byte, error) {
	if depth > maxDepth {
		return nil, nil, errTooDeep
	}
	switch tag {
	case bNil:
		return nil, data, nil
	case bFalse:
		return false, data, nil
	case bTrue:
		return true, data, nil
	case bInt:
		i, n := binary.Varint(data)
		if n <= 0 {
			return nil, nil, fmt.Errorf("codec: malformed varint: %w", errShortValue)
		}
		return i, data[n:], nil
	case bUint:
		u, rest, err := uvarint(data)
		return u, rest, err
	case bFloat:
		if len(data) < 8 {
			return nil, nil, errShortValue
		}
		return math.Float64frombits(binary.BigEndian.Uint64(data)), data[8:], nil
	case bString, bHex:
		n, rest, err := lengthPrefix(data)
		if err != nil {
			return nil, nil, err
		}
		if tag == bHex {
			return hexString(rest[:n]), rest[n:], nil
		}
		return string(rest[:n]), rest[n:], nil
	case bBytes, bMarshaled:
		n, rest, err := lengthPrefix(data)
		if err != nil {
			return nil, nil, err
		}
		return append([]byte(nil), rest[:n]...), rest[n:], nil
	case bList:
		count, rest, err := lengthPrefix(data)
		if err != nil {
			return nil, nil, err
		}
		out := make([]any, count)
		for i := range out {
			if len(rest) == 0 {
				return nil, nil, errShortValue
			}
			if out[i], rest, err = decodeGeneric(rest[0], rest[1:], depth+1); err != nil {
				return nil, nil, err
			}
		}
		return out, rest, nil
	case bMap:
		count, rest, err := lengthPrefix(data)
		if err != nil {
			return nil, nil, err
		}
		out := make(map[any]any, count)
		for i := 0; i < count; i++ {
			var k, v any
			if len(rest) == 0 {
				return nil, nil, errShortValue
			}
			if k, rest, err = decodeGeneric(rest[0], rest[1:], depth+1); err != nil {
				return nil, nil, err
			}
			if len(rest) == 0 {
				return nil, nil, errShortValue
			}
			if v, rest, err = decodeGeneric(rest[0], rest[1:], depth+1); err != nil {
				return nil, nil, err
			}
			kt := reflect.TypeOf(k)
			if kt != nil && !kt.Comparable() {
				return nil, nil, fmt.Errorf("codec: uncomparable generic map key %T", k)
			}
			out[k] = v
		}
		return out, rest, nil
	case bStruct:
		count, rest, err := lengthPrefix(data)
		if err != nil {
			return nil, nil, err
		}
		out := make([]any, count)
		for i := range out {
			var n int
			if n, rest, err = lengthPrefix(rest); err != nil {
				return nil, nil, err
			}
			field := rest[:n]
			if len(field) == 0 {
				return nil, nil, errShortValue
			}
			g, left, err := decodeGeneric(field[0], field[1:], depth+1)
			if err != nil {
				return nil, nil, err
			}
			if len(left) != 0 {
				return nil, nil, fmt.Errorf("codec: %d stray bytes inside generic field", len(left))
			}
			out[i] = g
			rest = rest[n:]
		}
		return out, rest, nil
	default:
		return nil, nil, fmt.Errorf("codec: unknown binary tag %d", tag)
	}
}

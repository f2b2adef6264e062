// Package codec is the one serialization every ObjectMQ envelope, argument
// and result travels in, and the mq stats reply too: Binary, a positional
// reflection codec (the paper's Kryo analogue). One kind tag opens the
// top-level value; below it struct fields travel in declaration order with
// no tag and no length, and the decoder reads them by the target's type. A
// string of lowercase hex — the item ids, chunk fingerprints and checksums
// every commit carries — travels as the raw bytes it spells, half its
// length, and decodes back to the identical string; every other string
// travels as is. There is no negotiation, no fallback and no evolution
// path — a peer still speaking an earlier layout is refused by the wire
// marker, not translated.
//
// # Buffer ownership
//
// MarshalAppend appends the encoding of v to dst (which may be nil) and
// returns the extended slice, exactly like the standard library's
// strconv.AppendInt family: the returned slice may share dst's backing
// array or may be a reallocation, and the codec retains neither. The caller
// owns the result and may reuse dst's backing array once the returned slice
// is no longer needed.
//
// Unmarshal never retains data, and no decoded value aliases data (byte
// slices in the result are copies). Callers may therefore decode straight
// out of pooled or reused network buffers and recycle them immediately
// after Unmarshal returns.
package codec

// Default returns the codec every RPC speaks.
func Default() Binary { return Binary{} }

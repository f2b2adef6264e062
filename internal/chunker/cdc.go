package chunker

import (
	"fmt"
	"io"
)

// CDC is a content-defined chunker using a rolling (buzhash-style) hash over
// a sliding window. Cut points depend only on local content, so inserting
// bytes near the start of a file shifts only nearby boundaries — avoiding
// the boundary-shifting problem of fixed chunking (§4.1, [20,21]).
type CDC struct {
	// Min, Avg, Max bound chunk sizes. A boundary is declared when the
	// rolling hash matches a mask derived from Avg, subject to Min/Max.
	Min, Avg, Max int
	// Window is the rolling-hash window width (default 48 bytes).
	Window int
}

var _ Chunker = CDC{}

// NewCDC returns a content-defined chunker tuned so the expected chunk size
// matches the paper's 512 KB fixed chunks, keeping chunk counts comparable
// with the fixed chunker in the tests and micro-benchmarks.
func NewCDC() CDC {
	return CDC{
		Min:    128 * 1024,
		Avg:    512 * 1024,
		Max:    1024 * 1024,
		Window: 48,
	}
}

// Name returns "cdc".
func (c CDC) Name() string { return "cdc" }

// gear is a fixed pseudo-random substitution table for the rolling hash,
// generated from a small xorshift PRNG so the package stays deterministic.
var gear = buildGear()

func buildGear() [256]uint64 {
	var t [256]uint64
	state := uint64(0x9E3779B97F4A7C15)
	for i := range t {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		t[i] = state
	}
	return t
}

func (c CDC) params() (minSize, avgSize, maxSize, window int) {
	minSize, avgSize, maxSize, window = c.Min, c.Avg, c.Max, c.Window
	if avgSize <= 0 {
		avgSize = DefaultChunkSize
	}
	if minSize <= 0 {
		minSize = avgSize / 4
	}
	if maxSize <= 0 {
		maxSize = avgSize * 2
	}
	if window <= 0 {
		window = 48
	}
	if minSize < window {
		minSize = window
	}
	if maxSize < minSize {
		maxSize = minSize
	}
	return minSize, avgSize, maxSize, window
}

// mask returns a bit mask with log2(avg) low bits set, so a random hash
// matches with probability 1/avg — yielding avg-sized chunks on average.
func mask(avg int) uint64 {
	bits := 0
	for v := avg; v > 1; v >>= 1 {
		bits++
	}
	return (uint64(1) << bits) - 1
}

// Split reads r fully and cuts it at content-defined boundaries.
func (c CDC) Split(r io.Reader) ([]Chunk, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("chunker: read: %w", err)
	}
	minSize, avgSize, maxSize, window := c.params()
	m := mask(avgSize)
	var chunks []Chunk
	start := 0
	var hash uint64
	for i := 0; i < len(data); i++ {
		hash = (hash << 1) + gear[data[i]]
		if i-start+1 >= window {
			hash -= gear[data[i-window+1]] << (window - 1)
		}
		length := i - start + 1
		if (length >= minSize && hash&m == m) || length >= maxSize {
			piece := data[start : i+1]
			chunks = append(chunks, Chunk{Fingerprint: Fingerprint(piece), Data: piece})
			start = i + 1
			hash = 0
		}
	}
	if start < len(data) {
		piece := data[start:]
		chunks = append(chunks, Chunk{Fingerprint: Fingerprint(piece), Data: piece})
	}
	return chunks, nil
}

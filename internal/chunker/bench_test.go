package chunker

import (
	"math/rand"
	"testing"
)

func benchData(n int) []byte {
	r := rand.New(rand.NewSource(42))
	b := make([]byte, n)
	r.Read(b)
	return b
}

// BenchmarkFixedSplit measures the paper's default chunking throughput —
// the cheapness argument for keeping static chunking (§4.1).
func BenchmarkFixedSplit(b *testing.B) {
	data := benchData(8 << 20)
	c := NewFixed()
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SplitBytes(c, data); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCDCSplit measures content-defined chunking throughput — the CPU
// cost §4.1 weighs against CDC's dedup gain when it keeps fixed chunks.
func BenchmarkCDCSplit(b *testing.B) {
	data := benchData(8 << 20)
	c := NewCDC()
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SplitBytes(c, data); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGzipChunk measures per-chunk compression cost.
func BenchmarkGzipChunk(b *testing.B) {
	data := benchData(DefaultChunkSize)
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Compress(data, Gzip); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFingerprint measures SHA-1 fingerprinting of a default chunk.
func BenchmarkFingerprint(b *testing.B) {
	data := benchData(DefaultChunkSize)
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Fingerprint(data)
	}
}

package chunker

import (
	"fmt"
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

// BenchmarkGzipChunk measures per-chunk compression cost at the paper's
// 512 KB chunk and at 4 KB, where a fresh writer's set-up would dominate.
func BenchmarkGzipChunk(b *testing.B) {
	for _, size := range []int{DefaultChunkSize, 4 << 10} {
		b.Run(fmt.Sprintf("%dKB", size>>10), func(b *testing.B) {
			data := benchData(size)
			b.SetBytes(int64(len(data)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := Compress(data, Gzip); err != nil {
					b.Fatal(err)
				}
			}
		})
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

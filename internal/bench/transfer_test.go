package bench

import (
	"testing"
	"time"
)

func TestTransferContentDistinctChunks(t *testing.T) {
	opts := TransferOptions{Chunks: 8, ChunkSize: 256, Seed: 3}
	content := transferContent(opts)
	if len(content) != 8*256 {
		t.Fatalf("content length = %d", len(content))
	}
	seen := map[string]bool{}
	for i := 0; i < 8; i++ {
		chunk := string(content[i*256 : (i+1)*256])
		if seen[chunk] {
			t.Fatalf("chunk %d duplicates an earlier chunk", i)
		}
		seen[chunk] = true
	}
	// A different seed produces entirely different chunks.
	other := transferContent(TransferOptions{Chunks: 8, ChunkSize: 256, Seed: 4})
	if string(other[:256]) == string(content[:256]) {
		t.Fatal("seed does not vary the content")
	}
}

// TestTransferPipelineSpeedsUpUploads is the in-tree smoke version of
// BenchmarkTransferPipeline: with per-request latency dominating, the
// pipelined schedule (8 workers × 16-chunk batches) must beat the serial
// one-chunk-at-a-time baseline clearly. The benchmark's bar is >=3x; here
// 2x keeps the test robust on loaded machines.
func TestTransferPipelineSpeedsUpUploads(t *testing.T) {
	opts := TransferOptions{
		Chunks: 128, ChunkSize: 4 << 10, PerRequest: time.Millisecond, Seed: 1,
	}
	serialOpts := opts
	serialOpts.Workers, serialOpts.Batch = 1, 1
	serial, err := RunTransferPipeline(serialOpts)
	if err != nil {
		t.Fatal(err)
	}
	pipedOpts := opts
	pipedOpts.Workers, pipedOpts.Batch, pipedOpts.Seed = 8, 16, 2
	piped, err := RunTransferPipeline(pipedOpts)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("serial %.1f MB/s (%v), pipelined %.1f MB/s (%v)",
		serial.MBps(), serial.Elapsed, piped.MBps(), piped.Elapsed)
	if piped.MBps() < 2*serial.MBps() {
		t.Fatalf("pipelined %.1f MB/s < 2x serial %.1f MB/s", piped.MBps(), serial.MBps())
	}
}

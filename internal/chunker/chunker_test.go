package chunker

import (
	"bytes"
	"compress/gzip"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
)

func randomBytes(r *rand.Rand, n int) []byte {
	b := make([]byte, n)
	r.Read(b)
	return b
}

func TestFixedSplitSizes(t *testing.T) {
	tests := []struct {
		name      string
		dataLen   int
		chunkSize int
		wantLens  []int
	}{
		{"empty", 0, 10, nil},
		{"exact multiple", 30, 10, []int{10, 10, 10}},
		{"remainder", 25, 10, []int{10, 10, 5}},
		{"smaller than chunk", 3, 10, []int{3}},
		{"single byte chunks", 4, 1, []int{1, 1, 1, 1}},
	}
	r := rand.New(rand.NewSource(1))
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			data := randomBytes(r, tt.dataLen)
			chunks, err := SplitBytes(Fixed{ChunkSize: tt.chunkSize}, data)
			if err != nil {
				t.Fatal(err)
			}
			if len(chunks) != len(tt.wantLens) {
				t.Fatalf("got %d chunks, want %d", len(chunks), len(tt.wantLens))
			}
			for i, want := range tt.wantLens {
				if chunks[i].Size() != want {
					t.Fatalf("chunk %d size = %d, want %d", i, chunks[i].Size(), want)
				}
			}
		})
	}
}

func TestFixedDefaultSize(t *testing.T) {
	data := make([]byte, DefaultChunkSize+100)
	chunks, err := SplitBytes(NewFixed(), data)
	if err != nil {
		t.Fatal(err)
	}
	if len(chunks) != 2 || chunks[0].Size() != DefaultChunkSize || chunks[1].Size() != 100 {
		t.Fatalf("default split: %d chunks, sizes %v", len(chunks), []int{chunks[0].Size(), chunks[len(chunks)-1].Size()})
	}
}

func TestReassembleIdentityProperty(t *testing.T) {
	chunkers := []Chunker{
		Fixed{ChunkSize: 64},
		CDC{Min: 32, Avg: 128, Max: 512, Window: 16},
	}
	for _, c := range chunkers {
		c := c
		f := func(data []byte) bool {
			chunks, err := SplitBytes(c, data)
			if err != nil {
				return false
			}
			out, err := Reassemble(chunks)
			if err != nil {
				return false
			}
			return bytes.Equal(out, data)
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
			t.Fatalf("%s: %v", c.Name(), err)
		}
	}
}

func TestReassembleDetectsCorruption(t *testing.T) {
	chunks, err := SplitBytes(Fixed{ChunkSize: 8}, []byte("the quick brown fox jumps"))
	if err != nil {
		t.Fatal(err)
	}
	chunks[1].Data[0] ^= 0xFF
	if _, err := Reassemble(chunks); err == nil {
		t.Fatal("corruption not detected")
	}
}

func TestFingerprintDeterministicAndDistinct(t *testing.T) {
	a := Fingerprint([]byte("chunk A"))
	if a != Fingerprint([]byte("chunk A")) {
		t.Fatal("fingerprint not deterministic")
	}
	if a == Fingerprint([]byte("chunk B")) {
		t.Fatal("distinct content collided")
	}
	if len(a) != 40 {
		t.Fatalf("SHA-1 hex length = %d, want 40", len(a))
	}
}

func TestFixedBoundaryShiftingProblem(t *testing.T) {
	// Prepending one byte to a file shifts every fixed-chunk boundary, so
	// no fingerprint survives — the §4.1 boundary-shifting problem that
	// makes UPDATE traffic heavy in Fig. 7(d).
	r := rand.New(rand.NewSource(2))
	data := randomBytes(r, 64*1024)
	before, _ := SplitBytes(Fixed{ChunkSize: 4096}, data)
	after, _ := SplitBytes(Fixed{ChunkSize: 4096}, append([]byte{0x42}, data...))
	beforeSet := make(map[string]bool)
	for _, c := range before {
		beforeSet[c.Fingerprint] = true
	}
	shared := 0
	for _, c := range after[:len(after)-1] { // last partial chunk may match by luck
		if beforeSet[c.Fingerprint] {
			shared++
		}
	}
	if shared != 0 {
		t.Fatalf("fixed chunking unexpectedly preserved %d chunks after prepend", shared)
	}
}

func TestCDCSurvivesPrepend(t *testing.T) {
	// Content-defined boundaries resynchronize after an insertion, so most
	// chunks keep their fingerprints.
	r := rand.New(rand.NewSource(3))
	data := randomBytes(r, 256*1024)
	c := CDC{Min: 2048, Avg: 8192, Max: 32768, Window: 32}
	before, err := SplitBytes(c, data)
	if err != nil {
		t.Fatal(err)
	}
	after, err := SplitBytes(c, append([]byte("INSERTED"), data...))
	if err != nil {
		t.Fatal(err)
	}
	beforeSet := make(map[string]bool)
	for _, ch := range before {
		beforeSet[ch.Fingerprint] = true
	}
	shared := 0
	for _, ch := range after {
		if beforeSet[ch.Fingerprint] {
			shared++
		}
	}
	if shared < len(before)/2 {
		t.Fatalf("CDC preserved only %d/%d chunks after prepend", shared, len(before))
	}
}

func TestCDCRespectsSizeBounds(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	data := randomBytes(r, 512*1024)
	c := CDC{Min: 1024, Avg: 4096, Max: 16384, Window: 32}
	chunks, err := SplitBytes(c, data)
	if err != nil {
		t.Fatal(err)
	}
	if len(chunks) < 2 {
		t.Fatalf("suspiciously few chunks: %d", len(chunks))
	}
	for i, ch := range chunks {
		if i < len(chunks)-1 && ch.Size() < 1024 {
			t.Fatalf("chunk %d below min: %d", i, ch.Size())
		}
		if ch.Size() > 16384 {
			t.Fatalf("chunk %d above max: %d", i, ch.Size())
		}
	}
	// Average should be loosely near Avg (within a factor of 4 either way).
	avg := len(data) / len(chunks)
	if avg < 1024 || avg > 16384 {
		t.Fatalf("observed average chunk size %d outside [min,max]", avg)
	}
}

func TestCDCDeterministic(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	data := randomBytes(r, 128*1024)
	c := NewCDC()
	a, err := SplitBytes(c, data)
	if err != nil {
		t.Fatal(err)
	}
	b, err := SplitBytes(c, data)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("nondeterministic chunk count: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Fingerprint != b[i].Fingerprint {
			t.Fatalf("chunk %d fingerprint differs between runs", i)
		}
	}
}

func TestDiffPartitionsKnownAndFresh(t *testing.T) {
	mk := func(s string) Chunk {
		return Chunk{Fingerprint: Fingerprint([]byte(s)), Data: []byte(s)}
	}
	known := map[string]bool{Fingerprint([]byte("old")): true}
	chunks := []Chunk{mk("old"), mk("new1"), mk("new1"), mk("new2")}
	gotKnown, fresh := Diff(chunks, func(fp string) bool { return known[fp] })
	if len(gotKnown) != 2 { // "old" + duplicate "new1"
		t.Fatalf("known = %d, want 2", len(gotKnown))
	}
	if len(fresh) != 2 { // first "new1" + "new2"
		t.Fatalf("fresh = %d, want 2", len(fresh))
	}
}

func TestCompressionRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	payloads := [][]byte{
		nil,
		[]byte("hello"),
		bytes.Repeat([]byte("abcd"), 10_000),
		randomBytes(r, 50_000),
	}
	for _, comp := range []Compression{None, Gzip} {
		for i, p := range payloads {
			enc, err := Compress(p, comp)
			if err != nil {
				t.Fatalf("%v payload %d: %v", comp, i, err)
			}
			dec, err := Decompress(enc, comp)
			if err != nil {
				t.Fatalf("%v payload %d decompress: %v", comp, i, err)
			}
			if !bytes.Equal(dec, p) {
				t.Fatalf("%v payload %d: round trip mismatch", comp, i)
			}
		}
	}
	// Most of a synced file's bytes are incompressible: gzip may not save
	// anything there, but it must never inflate them by more than 2 %.
	random := payloads[3]
	enc, err := Compress(random, Gzip)
	if err != nil {
		t.Fatal(err)
	}
	if len(enc)*100 > len(random)*102 {
		t.Fatalf("gzip inflated %d random bytes to %d", len(random), len(enc))
	}
}

func TestGzipShrinksRedundantData(t *testing.T) {
	data := bytes.Repeat([]byte("stacksync"), 10_000)
	enc, err := Compress(data, Gzip)
	if err != nil {
		t.Fatal(err)
	}
	if len(enc) >= len(data)/10 {
		t.Fatalf("gzip barely compressed: %d -> %d", len(data), len(enc))
	}
}

// TestGzipPooledMatchesFresh: a pooled, reset gzip writer emits exactly the
// bytes a fresh one does, and a pooled reader restores them, for empty,
// small and chunk-sized inputs compressed concurrently, so no state leaks
// from one chunk into the next.
func TestGzipPooledMatchesFresh(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	var inputs [][]byte
	for _, n := range []int{0, 1 << 10, 4 << 10, DefaultChunkSize} {
		half := randomBytes(r, n/2)
		inputs = append(inputs, append(half, bytes.Repeat([]byte("sync"), (n-n/2)/4)...))
	}
	want := make([][]byte, len(inputs))
	for i, in := range inputs {
		var buf bytes.Buffer
		w := gzip.NewWriter(&buf)
		if _, err := w.Write(in); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		want[i] = buf.Bytes()
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < 2; round++ {
				for k := range inputs {
					i := (g + round + k) % len(inputs)
					enc, err := Compress(inputs[i], Gzip)
					if err != nil || !bytes.Equal(enc, want[i]) {
						t.Errorf("input of %d B: pooled output differs from a fresh writer's (%v)", len(inputs[i]), err)
						return
					}
					dec, err := Decompress(enc, Gzip)
					if err != nil || !bytes.Equal(dec, inputs[i]) {
						t.Errorf("input of %d B: round trip through a pooled reader failed (%v)", len(inputs[i]), err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

package client

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"stacksync/internal/chunker"
	"stacksync/internal/clock"
	"stacksync/internal/objstore"
	"stacksync/internal/objstore/storetest"
)

// TestBreakerStoreConformance: the client's resilience wrapper is a Store
// like any other and must honor the full contract — sentinels, batch/single
// equivalence, and context cancellation (which must pass through without
// counting against the breaker).
func TestBreakerStoreConformance(t *testing.T) {
	storetest.Run(t, func(t *testing.T) objstore.Store {
		return newBreakerStore(objstore.NewMemory(), clock.NewReal(),
			-1, time.Millisecond, 5, time.Millisecond)
	})
}

func TestFlightGroupCoalesces(t *testing.T) {
	g := newFlightGroup()
	lead, ok := g.claim("fp")
	if !ok {
		t.Fatal("first claim was not the leader")
	}
	follow, ok := g.claim("fp")
	if ok {
		t.Fatal("second claim stole leadership")
	}
	if follow != lead {
		t.Fatal("follower got a different call")
	}
	done := make(chan error, 1)
	go func() {
		<-follow.done
		done <- follow.err
	}()
	wantErr := fmt.Errorf("boom")
	g.release("fp", lead, wantErr)
	if err := <-done; err != wantErr {
		t.Fatalf("follower saw %v, want %v", err, wantErr)
	}
	// After release the fingerprint is claimable again.
	if _, ok := g.claim("fp"); !ok {
		t.Fatal("fingerprint stuck after release")
	}
}

func TestChunkCacheLRUEviction(t *testing.T) {
	c := newChunkCache(100)
	c.put("a", make([]byte, 40))
	c.put("b", make([]byte, 40))
	if _, ok := c.get("a"); !ok {
		t.Fatal("a missing before eviction")
	}
	// a was just touched, so inserting c evicts b (the LRU entry).
	c.put("c", make([]byte, 40))
	if _, ok := c.get("b"); ok {
		t.Fatal("LRU entry b survived eviction")
	}
	if _, ok := c.get("a"); !ok {
		t.Fatal("recently used entry a was evicted")
	}
	if _, ok := c.get("c"); !ok {
		t.Fatal("new entry c missing")
	}
	if got := c.bytes(); got != 80 {
		t.Fatalf("cache size = %d, want 80", got)
	}
	// Updating an entry adjusts the accounted size.
	c.put("a", make([]byte, 10))
	if got := c.bytes(); got != 50 {
		t.Fatalf("cache size after update = %d, want 50", got)
	}
	// Oversized values are refused outright.
	c.put("huge", make([]byte, 101))
	if _, ok := c.get("huge"); ok {
		t.Fatal("oversized entry was cached")
	}
}

func TestChunkCacheDisabled(t *testing.T) {
	c := newChunkCache(-1)
	c.put("a", []byte("x"))
	if _, ok := c.get("a"); ok {
		t.Fatal("disabled cache served a hit")
	}
	if c.bytes() != 0 {
		t.Fatal("disabled cache accounted bytes")
	}
}

// TestWarmResyncSkipsPresentChunks: the server-assisted dedup probe. The
// store already holds every chunk of the file (uploaded by some departed
// device), but the local database knows nothing — without the probe the
// client would re-upload all of it. The acceptance bar: zero puts.
func TestWarmResyncSkipsPresentChunks(t *testing.T) {
	r := newRig(t)
	var content []byte // 4 KB = 4 distinct chunks of 1 KB
	for i := 0; i < 4; i++ {
		content = append(content, bytes.Repeat([]byte{byte('a' + i)}, 1024)...)
	}

	// Seed the store directly, bypassing every client: compress exactly as
	// the client would and land the chunks under their fingerprints.
	ctx := context.Background()
	if err := r.storage.EnsureContainer(ctx, WorkspaceContainer("ws")); err != nil {
		t.Fatal(err)
	}
	chunks, err := chunker.SplitBytes(chunker.Fixed{ChunkSize: 1024}, content)
	if err != nil {
		t.Fatal(err)
	}
	for _, ch := range chunks {
		compressed, err := chunker.Compress(ch.Data, chunker.Gzip)
		if err != nil {
			t.Fatal(err)
		}
		if err := r.storage.PutMulti(ctx, WorkspaceContainer("ws"), []objstore.Object{{Key: ch.Fingerprint, Data: compressed}}); err != nil {
			t.Fatal(err)
		}
	}

	a := r.newDevice("alice", "dev-a")
	putsBefore := r.storage.Traffic().Puts
	if err := a.PutFile("warm.bin", content); err != nil {
		t.Fatal(err)
	}
	if err := a.WaitForVersion("warm.bin", 1, syncWait); err != nil {
		t.Fatal(err)
	}
	if delta := r.storage.Traffic().Puts - putsBefore; delta != 0 {
		t.Fatalf("warm resync re-uploaded %d chunks, want 0", delta)
	}
	if skipped := a.Registry().CounterValue("objstore_dedup_skipped_total", "device", "dev-a"); skipped != uint64(len(chunks)) {
		t.Fatalf("dedup skipped %d chunks, want %d", skipped, len(chunks))
	}
}

// gatedStore blocks its first PutMulti until the gate opens, giving a
// second uploader time to pile onto the in-flight fingerprint.
type gatedStore struct {
	objstore.Store
	gate  chan struct{}
	once  sync.Once
	first chan struct{} // closed when the first PutMulti has parked
}

func (g *gatedStore) PutMulti(ctx context.Context, c string, objs []objstore.Object) error {
	blocked := false
	g.once.Do(func() { blocked = true })
	if blocked {
		close(g.first)
		<-g.gate
	}
	return g.Store.PutMulti(ctx, c, objs)
}

// TestSingleflightCoalescesConcurrentUploads: two files sharing a chunk are
// uploaded concurrently; the second upload must wait on the first instead
// of shipping the chunk again.
func TestSingleflightCoalescesConcurrentUploads(t *testing.T) {
	r := newRig(t)
	gated := &gatedStore{Store: r.storage, gate: make(chan struct{}), first: make(chan struct{})}
	a := r.newDevice("alice", "dev-a", func(cfg *Config) {
		cfg.Storage = gated
	})

	shared := bytes.Repeat([]byte("s"), 1000) // < 1 KB = exactly 1 chunk
	errs := make(chan error, 2)
	go func() { errs <- a.PutFile("one.bin", shared) }()
	<-gated.first // first upload is parked inside PutMulti, leading the flight
	go func() { errs <- a.PutFile("two.bin", shared) }()

	// Give the second upload time to probe, miss, and join the flight, then
	// open the gate. Both commits must land exactly one copy of the chunk.
	waitShared := time.Now().Add(syncWait)
	for a.Registry().CounterValue("client_singleflight_shared_total", "device", "dev-a") == 0 {
		if time.Now().After(waitShared) {
			t.Fatal("second upload never joined the in-flight chunk")
		}
		time.Sleep(time.Millisecond)
	}
	close(gated.gate)
	for i := 0; i < 2; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if err := a.WaitForVersion("one.bin", 1, syncWait); err != nil {
		t.Fatal(err)
	}
	if err := a.WaitForVersion("two.bin", 1, syncWait); err != nil {
		t.Fatal(err)
	}
	if puts := r.storage.Traffic().Puts; puts != 1 {
		t.Fatalf("shared chunk shipped %d times, want 1", puts)
	}
}

// TestDownloadUsesChunkCache: a chunk downloaded once is served from the
// LRU cache on the next fetch instead of going back to the store.
func TestDownloadUsesChunkCache(t *testing.T) {
	r := newRig(t)
	a := r.newDevice("alice", "dev-a")
	b := r.newDevice("bob", "dev-b")

	base := bytes.Repeat([]byte("cache-me!"), 300) // ~3 KB = 3 chunks
	if err := a.PutFile("doc.bin", base); err != nil {
		t.Fatal(err)
	}
	if err := b.WaitForVersion("doc.bin", 1, syncWait); err != nil {
		t.Fatal(err)
	}
	if err := a.WaitForVersion("doc.bin", 1, syncWait); err != nil {
		t.Fatal(err)
	}
	// Modify the tail: device B re-fetches, but the unchanged prefix chunks
	// come from its cache.
	updated := append(append([]byte{}, base...), []byte("tail")...)
	if err := a.PutFile("doc.bin", updated); err != nil {
		t.Fatal(err)
	}
	if err := b.WaitForVersion("doc.bin", 2, syncWait); err != nil {
		t.Fatal(err)
	}
	got, _ := b.FileContent("doc.bin")
	if !bytes.Equal(got, updated) {
		t.Fatal("device B diverged")
	}
	if hits := b.Registry().CounterValue("client_chunk_cache_hits_total", "device", "dev-b"); hits == 0 {
		t.Fatal("second fetch never hit the chunk cache")
	}
}

// TestTransferPipelineStress drives many concurrent commits with heavily
// overlapping chunks through the parallel transfer path — the race-detector
// leg of the pipeline (scripts/check.sh runs this package with -race).
func TestTransferPipelineStress(t *testing.T) {
	r := newRig(t)
	a := r.newDevice("alice", "dev-a", func(cfg *Config) {
		cfg.TransferWorkers = 8
		cfg.TransferBatch = 4
	})
	b := r.newDevice("bob", "dev-b", func(cfg *Config) {
		cfg.TransferWorkers = 8
		cfg.TransferBatch = 4
	})

	const writers = 8
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Shared blocks across writers force dedup + singleflight
			// collisions; a unique suffix keeps every file distinct.
			shared := bytes.Repeat([]byte("stress-shared-block"), 400) // ~7.6 KB
			unique := []byte(fmt.Sprintf("writer-%d", w))
			if err := a.PutFile(fmt.Sprintf("stress-%d.bin", w), append(shared, unique...)); err != nil {
				t.Error(err)
			}
		}(w)
	}
	wg.Wait()
	for w := 0; w < writers; w++ {
		name := fmt.Sprintf("stress-%d.bin", w)
		if err := b.WaitForVersion(name, 1, syncWait); err != nil {
			t.Fatalf("writer %d: %v", w, err)
		}
		got, ok := b.FileContent(name)
		if !ok || !bytes.HasSuffix(got, []byte(fmt.Sprintf("writer-%d", w))) {
			t.Fatalf("writer %d content diverged", w)
		}
	}
}

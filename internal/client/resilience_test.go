package client

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"sync/atomic"
	"testing"
	"time"

	"stacksync/internal/chunker"
	"stacksync/internal/core"
	"stacksync/internal/mq"
	"stacksync/internal/objstore"
	"stacksync/internal/omq"
)

// flakyStore fails every operation while down is set.
type flakyStore struct {
	objstore.Store
	down  atomic.Bool
	calls atomic.Int64
}

var errStoreDown = errors.New("store down")

func (f *flakyStore) fail() error {
	f.calls.Add(1)
	if f.down.Load() {
		return errStoreDown
	}
	return nil
}

func (f *flakyStore) EnsureContainer(ctx context.Context, c string) error {
	if err := f.fail(); err != nil {
		return err
	}
	return f.Store.EnsureContainer(ctx, c)
}

func (f *flakyStore) PutMulti(ctx context.Context, c string, objs []objstore.Object) error {
	if err := f.fail(); err != nil {
		return err
	}
	return f.Store.PutMulti(ctx, c, objs)
}

func (f *flakyStore) GetMulti(ctx context.Context, c string, keys []string) ([][]byte, error) {
	if err := f.fail(); err != nil {
		return nil, err
	}
	return f.Store.GetMulti(ctx, c, keys)
}

func (f *flakyStore) ExistsMulti(ctx context.Context, c string, keys []string) ([]bool, error) {
	if err := f.fail(); err != nil {
		return nil, err
	}
	return f.Store.ExistsMulti(ctx, c, keys)
}

func TestBreakerOpensThenRecovers(t *testing.T) {
	flaky := &flakyStore{Store: objstore.NewMemory()}
	flaky.down.Store(true)
	b := newBreakerStore(flaky, 0, time.Millisecond, 3, 30*time.Millisecond)

	ctx := context.Background()
	one := []objstore.Object{{Key: "k", Data: []byte("x")}}
	for i := 0; i < 3; i++ {
		if err := b.PutMulti(ctx, "c", one); !errors.Is(err, errStoreDown) {
			t.Fatalf("put %d: %v", i, err)
		}
	}
	if !b.Open() {
		t.Fatal("breaker closed after threshold failures")
	}
	before := flaky.calls.Load()
	if err := b.PutMulti(ctx, "c", one); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("open-circuit put: %v", err)
	}
	if flaky.calls.Load() != before {
		t.Fatal("open circuit still reached the store")
	}
	if b.Trips() != 1 {
		t.Fatalf("trips = %d, want 1", b.Trips())
	}

	// Heal; after the cooldown a probe goes through and closes the breaker.
	flaky.down.Store(false)
	time.Sleep(40 * time.Millisecond)
	if err := b.EnsureContainer(ctx, "c"); err != nil {
		t.Fatalf("probe after cooldown: %v", err)
	}
	if err := b.PutMulti(ctx, "c", one); err != nil {
		t.Fatalf("put after recovery: %v", err)
	}
	if b.Open() {
		t.Fatal("breaker still open after successful probe")
	}
}

// TestPermanentErrorsSkipRetries: ErrNotFound must surface immediately (one
// attempt) and must not trip the breaker.
func TestPermanentErrorsSkipRetries(t *testing.T) {
	ctx := context.Background()
	mem := objstore.NewMemory()
	if err := mem.EnsureContainer(ctx, "c"); err != nil {
		t.Fatal(err)
	}
	counting := &flakyStore{Store: mem}
	b := newBreakerStore(counting, 5, time.Millisecond, 2, time.Minute)
	if _, err := b.GetMulti(ctx, "c", []string{"missing"}); !errors.Is(err, objstore.ErrNotFound) {
		t.Fatalf("get: %v", err)
	}
	if got := counting.calls.Load(); got != 1 {
		t.Fatalf("permanent error attempted %d times, want 1", got)
	}
	if _, err := b.GetMulti(ctx, "c", []string{"missing"}); !errors.Is(err, objstore.ErrNotFound) {
		t.Fatalf("second get: %v", err)
	}
	if b.Open() {
		t.Fatal("permanent errors tripped the breaker")
	}
}

// TestDegradedCommitQueuesUploads: with storage down, PutFile still commits
// (metadata flow stays available); the chunk upload is queued and drained
// once storage heals, after which a fresh device can fetch the content.
func TestDegradedCommitQueuesUploads(t *testing.T) {
	r := newRig(t)
	flaky := &flakyStore{Store: r.storage}
	a := r.newDevice("alice", "dev-a", func(cfg *Config) {
		cfg.Storage = flaky
	})

	flaky.down.Store(true)
	content := []byte("written while the object store is down")
	if err := a.PutFile("degraded.txt", content); err != nil {
		t.Fatalf("degraded put: %v", err)
	}
	if UploadQueueDepth(a.Registry(), "dev-a") == 0 {
		t.Fatal("no upload queued while store down")
	}
	// The commit itself must still go through.
	if err := a.WaitForVersion("degraded.txt", 1, syncWait); err != nil {
		t.Fatalf("commit unavailable during storage outage: %v", err)
	}

	flaky.down.Store(false)
	deadline := time.Now().Add(syncWait)
	for UploadQueueDepth(a.Registry(), "dev-a") > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("queued uploads never drained (%d left)",
				UploadQueueDepth(a.Registry(), "dev-a"))
		}
		time.Sleep(10 * time.Millisecond)
	}

	// A device joining after recovery reads the full content from storage.
	b := r.newDevice("bob", "dev-b")
	if err := b.WaitForVersion("degraded.txt", 1, syncWait); err != nil {
		t.Fatal(err)
	}
	got, ok := b.FileContent("degraded.txt")
	if !ok || string(got) != string(content) {
		t.Fatalf("joiner content = %q ok=%v", got, ok)
	}
}

// poisonStore permanently refuses any batch that carries key, the way a
// store refuses a request it will never authorize.
type poisonStore struct {
	objstore.Store
	key string
}

func (p *poisonStore) PutMulti(ctx context.Context, c string, objs []objstore.Object) error {
	for _, o := range objs {
		if o.Key == p.key {
			return fmt.Errorf("put %s: %w", o.Key, objstore.ErrUnauthorized)
		}
	}
	return p.Store.PutMulti(ctx, c, objs)
}

// TestFlushDropsPoisonedChunk: a queued batch holding one chunk the store
// permanently refuses is retried chunk by chunk, so that chunk is dropped,
// every other queued chunk lands, and the queue drains.
func TestFlushDropsPoisonedChunk(t *testing.T) {
	r := newRig(t)
	fixed := chunker.Fixed{ChunkSize: 1024}
	var content []byte // three distinct 1 KB chunks
	for _, b := range "abc" {
		content = append(content, bytes.Repeat([]byte{byte(b)}, 1024)...)
	}
	chunks, err := chunker.SplitBytes(fixed, content)
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]string, len(chunks))
	for i, ch := range chunks {
		keys[i] = ch.Fingerprint
	}
	flaky := &flakyStore{Store: &poisonStore{Store: r.storage, key: keys[1]}}
	a := r.newDevice("alice", "dev-a", func(cfg *Config) {
		cfg.Storage = flaky
		cfg.Chunker = fixed
	})

	flaky.down.Store(true)
	if err := a.PutFile("poisoned.bin", content); err != nil {
		t.Fatal(err)
	}
	if depth := UploadQueueDepth(a.Registry(), "dev-a"); depth != len(keys) {
		t.Fatalf("queued %d uploads, want %d", depth, len(keys))
	}

	flaky.down.Store(false)
	deadline := time.Now().Add(syncWait)
	for UploadQueueDepth(a.Registry(), "dev-a") > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("poisoned batch stalled the queue (%d left)", UploadQueueDepth(a.Registry(), "dev-a"))
		}
		time.Sleep(10 * time.Millisecond)
	}
	present, err := r.storage.ExistsMulti(context.Background(), WorkspaceContainer("ws"), keys)
	if err != nil {
		t.Fatal(err)
	}
	if !present[0] || present[1] || !present[2] {
		t.Fatalf("chunks stored %v, want [true false true]", present)
	}
}

// lossyMQ drops the first `budget` publishes routed to the given key.
type lossyMQ struct {
	mq.MQ
	key     string
	dropped atomic.Int64
	budget  int64
}

func (l *lossyMQ) Publish(exchange, key string, msg mq.Message) error {
	if key == l.key && l.dropped.Load() < l.budget {
		l.dropped.Add(1)
		return nil
	}
	return l.MQ.Publish(exchange, key, msg)
}

// TestRetransmitRecoversDroppedCommit: the CommitRequest vanishes in the
// network; the client's retransmit loop re-proposes it and the device
// converges anyway.
func TestRetransmitRecoversDroppedCommit(t *testing.T) {
	r := newRig(t)
	lossy := &lossyMQ{MQ: r.mq, key: core.ServiceOID, budget: 1}
	b, err := omq.NewBroker(lossy)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	c, err := NewClient(Config{
		UserID: "alice", DeviceID: "dev-a", WorkspaceID: "ws",
		Broker: b, Storage: r.storage,
		RetransmitEvery: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}

	if err := c.PutFile("lost.txt", []byte("try again")); err != nil {
		t.Fatal(err)
	}
	if err := c.WaitForVersion("lost.txt", 1, syncWait); err != nil {
		t.Fatalf("retransmission did not recover dropped commit: %v", err)
	}
	if lossy.dropped.Load() != 1 {
		t.Fatalf("dropped %d commits, want 1", lossy.dropped.Load())
	}
}

// TestResyncPicksUpMissedCommit: a commit that produced no push notification
// (here: written straight into the metadata store) is repaired by a
// pull-based resync.
func TestResyncPicksUpMissedCommit(t *testing.T) {
	r := newRig(t)
	b := r.newDevice("bob", "dev-b")

	// Upload the chunk + commit behind every push channel's back.
	a := r.newDevice("alice", "dev-a")
	if err := a.PutFile("seed.txt", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := a.WaitForVersion("seed.txt", 1, syncWait); err != nil {
		t.Fatal(err)
	}
	item, ok, err := r.meta.Current("ws", ItemID("ws", "seed.txt"))
	if err != nil || !ok {
		t.Fatalf("current: ok=%v err=%v", ok, err)
	}
	item.Version = 2
	item.Path = "seed.txt"
	if _, err := r.meta.CommitVersion(item); err != nil {
		t.Fatal(err)
	}

	if err := b.Resync(); err != nil {
		t.Fatal(err)
	}
	if err := b.WaitForVersion("seed.txt", 2, syncWait); err != nil {
		t.Fatalf("resync never repaired the silent commit: %v", err)
	}
}

// TestWatcherCountsScanErrors: transient read failures during a scan are
// counted instead of silently swallowed.
func TestWatcherCountsScanErrors(t *testing.T) {
	r := newRig(t)
	a := r.newDevice("alice", "dev-a")
	dir := t.TempDir()
	w, err := NewDirWatcher(a, dir, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dir+"/busy.txt", []byte("locked"), 0o644); err != nil {
		t.Fatal(err)
	}

	scanErrors := func() uint64 {
		return a.Registry().CounterValue("client_watcher_scan_errors_total",
			"device", "dev-a")
	}
	w.readFile = func(string) ([]byte, error) { return nil, errors.New("sharing violation") }
	if err := w.SyncOnce(); err != nil {
		t.Fatalf("scan error must not abort the cycle: %v", err)
	}
	if got := scanErrors(); got != 1 {
		t.Fatalf("scan errors = %d, want 1", got)
	}
	if _, ok := a.Version("busy.txt"); ok {
		t.Fatal("unreadable file was indexed")
	}

	// Next tick the file is readable; it gets indexed and the count stays.
	w.readFile = os.ReadFile
	if err := w.SyncOnce(); err != nil {
		t.Fatal(err)
	}
	if err := a.WaitForVersion("busy.txt", 1, syncWait); err != nil {
		t.Fatal(err)
	}
	if got := scanErrors(); got != 1 {
		t.Fatalf("scan errors after recovery = %d, want 1", got)
	}
}

// TestDuplicateNotificationIsIdempotent: replaying a commit notification
// must not double-apply or emit duplicate events.
func TestDuplicateNotificationIsIdempotent(t *testing.T) {
	r := newRig(t)
	a := r.newDevice("alice", "dev-a")
	if err := a.PutFile("f.txt", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if err := a.WaitForVersion("f.txt", 1, syncWait); err != nil {
		t.Fatal(err)
	}
	drainEvents(a)

	// Replay the own-commit acknowledgement by hand.
	item, ok, err := r.meta.Current("ws", ItemID("ws", "f.txt"))
	if err != nil || !ok {
		t.Fatalf("current: ok=%v err=%v", ok, err)
	}
	n := core.CommitNotification{
		Workspace: "ws", DeviceID: "dev-a",
		Results: []core.CommitResult{{Committed: true, Item: item, Proposed: item}},
	}
	if err := a.handleNotification(context.Background(), n); err != nil {
		t.Fatal(err)
	}
	if err := a.handleNotification(context.Background(), n); err != nil {
		t.Fatal(err)
	}
	if v, _ := a.Version("f.txt"); v != 1 {
		t.Fatalf("version = %d after replay, want 1", v)
	}
	select {
	case e := <-a.Events():
		t.Fatalf("replayed notification emitted event %+v", e)
	default:
	}
}

func drainEvents(c *Client) {
	for {
		select {
		case <-c.Events():
		default:
			return
		}
	}
}

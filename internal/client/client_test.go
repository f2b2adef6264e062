package client

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"stacksync/internal/chunker"
	"stacksync/internal/core"
	"stacksync/internal/metastore"
	"stacksync/internal/mq"
	"stacksync/internal/objstore"
	"stacksync/internal/omq"
)

const syncWait = 5 * time.Second

// rig is a full in-process deployment: broker, metadata store, storage,
// SyncService, and any number of client devices.
type rig struct {
	t       *testing.T
	mq      *mq.Broker
	meta    *metastore.Store
	storage *objstore.Metered
	server  *omq.Broker
}

func newRig(t *testing.T) *rig {
	t.Helper()
	m := mq.NewBroker()
	meta := metastore.NewStore()
	storage := objstore.NewMetered(objstore.NewMemory())
	server, err := omq.NewBroker(m)
	if err != nil {
		t.Fatal(err)
	}
	svc := core.NewService(meta, server)
	if _, err := svc.Bind(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		_ = server.Close()
		_ = meta.Close()
		_ = m.Close()
	})
	if err := meta.CreateWorkspace(metastore.Workspace{ID: "ws", Owner: "alice", Members: []string{"bob"}}); err != nil {
		t.Fatal(err)
	}
	return &rig{t: t, mq: m, meta: meta, storage: storage, server: server}
}

func (r *rig) newDevice(user, device string, opts ...func(*Config)) *Client {
	r.t.Helper()
	b, err := omq.NewBroker(r.mq)
	if err != nil {
		r.t.Fatal(err)
	}
	cfg := Config{
		UserID: user, DeviceID: device, WorkspaceID: "ws",
		Broker: b, Storage: r.storage,
		Chunker: chunker.Fixed{ChunkSize: 1024}, // small files, small chunks
	}
	for _, o := range opts {
		o(&cfg)
	}
	c, err := NewClient(cfg)
	if err != nil {
		r.t.Fatal(err)
	}
	if err := c.Start(); err != nil {
		r.t.Fatal(err)
	}
	r.t.Cleanup(func() {
		_ = c.Close()
		_ = b.Close()
	})
	return c
}

func TestAddPropagatesToOtherDevice(t *testing.T) {
	r := newRig(t)
	a := r.newDevice("alice", "dev-a")
	b := r.newDevice("bob", "dev-b")

	content := []byte("hello stacksync")
	if err := a.PutFile("notes.txt", content); err != nil {
		t.Fatal(err)
	}
	if err := b.WaitForVersion("notes.txt", 1, syncWait); err != nil {
		t.Fatal(err)
	}
	got, ok := b.FileContent("notes.txt")
	if !ok || !bytes.Equal(got, content) {
		t.Fatalf("device B content: %q, %v", got, ok)
	}
	// The writer also converges.
	if err := a.WaitForVersion("notes.txt", 1, syncWait); err != nil {
		t.Fatal(err)
	}
}

func TestUpdatePropagatesAndDeduplicates(t *testing.T) {
	r := newRig(t)
	a := r.newDevice("alice", "dev-a")
	b := r.newDevice("bob", "dev-b")

	base := bytes.Repeat([]byte("block-one-"), 200) // ~2 KB = 2 chunks of 1 KB
	if err := a.PutFile("doc.bin", base); err != nil {
		t.Fatal(err)
	}
	if err := b.WaitForVersion("doc.bin", 1, syncWait); err != nil {
		t.Fatal(err)
	}
	// Commits are asynchronous: wait for the writer's own ack so the update
	// proposes v2 on top of an acknowledged v1.
	if err := a.WaitForVersion("doc.bin", 1, syncWait); err != nil {
		t.Fatal(err)
	}
	putsBefore := r.storage.Traffic().Puts

	// Append-only modification: the shared prefix chunks must not re-upload.
	updated := append(append([]byte{}, base...), bytes.Repeat([]byte("tail"), 300)...)
	if err := a.PutFile("doc.bin", updated); err != nil {
		t.Fatal(err)
	}
	if err := b.WaitForVersion("doc.bin", 2, syncWait); err != nil {
		t.Fatal(err)
	}
	got, _ := b.FileContent("doc.bin")
	if !bytes.Equal(got, updated) {
		t.Fatal("device B diverged after update")
	}
	newPuts := r.storage.Traffic().Puts - putsBefore
	// base is 2000 bytes -> chunks [0,1024) and [1024,2000). The update
	// extends the file, so chunk 0 is unchanged; chunk 1 and the new tail
	// chunks are fresh. Full re-upload would be >= 3 puts + no dedup.
	if newPuts >= 4 {
		t.Fatalf("update uploaded %d chunks; dedup not applied", newPuts)
	}
	if newPuts == 0 {
		t.Fatal("update uploaded nothing; content cannot have propagated")
	}
}

func TestRemovePropagates(t *testing.T) {
	r := newRig(t)
	a := r.newDevice("alice", "dev-a")
	b := r.newDevice("bob", "dev-b")

	if err := a.PutFile("temp.txt", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := b.WaitForVersion("temp.txt", 1, syncWait); err != nil {
		t.Fatal(err)
	}
	// b's notification and a's own ack ride independent queues; wait for
	// a's ack too before removing.
	if err := a.WaitForVersion("temp.txt", 1, syncWait); err != nil {
		t.Fatal(err)
	}
	if err := a.RemoveFile("temp.txt"); err != nil {
		t.Fatal(err)
	}
	if err := b.WaitForGone("temp.txt", syncWait); err != nil {
		t.Fatal(err)
	}
	if err := a.WaitForGone("temp.txt", syncWait); err != nil {
		t.Fatal(err)
	}
	// Removing a missing file fails.
	if err := a.RemoveFile("never-existed"); !errors.Is(err, ErrNoFile) {
		t.Fatalf("remove missing: %v", err)
	}
}

func TestLateJoinerBootstrapsViaGetChanges(t *testing.T) {
	r := newRig(t)
	a := r.newDevice("alice", "dev-a")
	for i := 0; i < 5; i++ {
		if err := a.PutFile(fmt.Sprintf("f%d.txt", i), []byte(fmt.Sprintf("content %d", i))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		if err := a.WaitForVersion(fmt.Sprintf("f%d.txt", i), 1, syncWait); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.RemoveFile("f0.txt"); err != nil {
		t.Fatal(err)
	}
	if err := a.WaitForGone("f0.txt", syncWait); err != nil {
		t.Fatal(err)
	}

	// A device joining now must see exactly the live state.
	late := r.newDevice("bob", "dev-late")
	paths := late.Paths()
	if len(paths) != 4 {
		t.Fatalf("late joiner sees %d files, want 4: %v", len(paths), paths)
	}
	got, ok := late.FileContent("f3.txt")
	if !ok || string(got) != "content 3" {
		t.Fatalf("late joiner content: %q %v", got, ok)
	}
}

// heldMQ is an mq.MQ whose consumers stop receiving while held: the same
// seam mq.Faulty perturbs publishes through, applied to deliveries. A test
// uses it to keep a device ignorant of what the broker already has for it.
type heldMQ struct {
	mq.MQ
	mu   sync.Mutex
	gate chan struct{} // non-nil while held; closed by release
}

func (h *heldMQ) hold() {
	h.mu.Lock()
	h.gate = make(chan struct{})
	h.mu.Unlock()
}

func (h *heldMQ) release() {
	h.mu.Lock()
	close(h.gate)
	h.gate = nil
	h.mu.Unlock()
}

type heldSub struct {
	mq.Subscription
	out chan mq.Delivery
}

func (s heldSub) Deliveries() <-chan mq.Delivery { return s.out }

func (h *heldMQ) Subscribe(queue string, prefetch int) (mq.Subscription, error) {
	sub, err := h.MQ.Subscribe(queue, prefetch)
	if err != nil {
		return nil, err
	}
	out := make(chan mq.Delivery)
	go func() {
		defer close(out)
		for d := range sub.Deliveries() {
			h.mu.Lock()
			gate := h.gate
			h.mu.Unlock()
			if gate != nil {
				<-gate
			}
			out <- d
		}
	}()
	return heldSub{Subscription: sub, out: out}, nil
}

func TestConcurrentEditProducesConflictCopy(t *testing.T) {
	r := newRig(t)
	a := r.newDevice("alice", "dev-a")
	// B hears from the broker through a handle the test can hold.
	held := &heldMQ{MQ: r.mq}
	heldBroker, err := omq.NewBroker(held)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = heldBroker.Close() })
	b := r.newDevice("bob", "dev-b", func(c *Config) { c.Broker = heldBroker })

	if err := a.PutFile("shared.txt", []byte("base")); err != nil {
		t.Fatal(err)
	}
	if err := a.WaitForVersion("shared.txt", 1, syncWait); err != nil {
		t.Fatal(err)
	}
	if err := b.WaitForVersion("shared.txt", 1, syncWait); err != nil {
		t.Fatal(err)
	}

	// Both devices propose version 2 before B sees A's commit: B's
	// deliveries are held until both proposals are published. Unheld, A's
	// commit can round-trip before B proposes, B then proposes — and
	// commits — version 3, and there is no conflict to resolve.
	held.hold()
	if err := a.PutFile("shared.txt", []byte("from A")); err != nil {
		t.Fatal(err)
	}
	if err := b.PutFile("shared.txt", []byte("from B")); err != nil {
		t.Fatal(err)
	}
	held.release()

	// Both converge on one winner at v2...
	if err := a.WaitForVersion("shared.txt", 2, syncWait); err != nil {
		t.Fatal(err)
	}
	if err := b.WaitForVersion("shared.txt", 2, syncWait); err != nil {
		t.Fatal(err)
	}
	// ...and a conflict copy appears on both devices.
	findCopy := func(c *Client) string {
		deadline := time.Now().Add(syncWait)
		for time.Now().Before(deadline) {
			for _, p := range c.Paths() {
				if strings.Contains(p, "conflicted copy") {
					return p
				}
			}
			time.Sleep(2 * time.Millisecond)
		}
		return ""
	}
	copyA := findCopy(a)
	copyB := findCopy(b)
	if copyA == "" || copyA != copyB {
		t.Fatalf("conflict copies: a=%q b=%q", copyA, copyB)
	}

	// Winner content on the original path agrees across devices, and the
	// conflict copy holds the loser's content.
	ca, _ := a.FileContent("shared.txt")
	cb, _ := b.FileContent("shared.txt")
	if !bytes.Equal(ca, cb) {
		t.Fatalf("devices diverged: %q vs %q", ca, cb)
	}
	copyContentA, _ := a.FileContent(copyA)
	copyContentB, _ := b.FileContent(copyB)
	if !bytes.Equal(copyContentA, copyContentB) {
		t.Fatalf("conflict copy diverged: %q vs %q", copyContentA, copyContentB)
	}
	winner, loser := string(ca), string(copyContentA)
	if winner == loser {
		t.Fatal("winner and conflict copy hold the same content")
	}
	want := map[string]bool{"from A": true, "from B": true}
	if !want[winner] || !want[loser] {
		t.Fatalf("unexpected contents: winner=%q loser=%q", winner, loser)
	}
}

func TestSixDevicesConverge(t *testing.T) {
	// The Fig. 7(e) topology: one writer, five observers.
	r := newRig(t)
	writer := r.newDevice("alice", "dev-w")
	observers := make([]*Client, 5)
	for i := range observers {
		observers[i] = r.newDevice("bob", fmt.Sprintf("dev-o%d", i))
	}
	payload := bytes.Repeat([]byte("payload"), 1000)
	if err := writer.PutFile("big.bin", payload); err != nil {
		t.Fatal(err)
	}
	for i, o := range observers {
		if err := o.WaitForVersion("big.bin", 1, syncWait); err != nil {
			t.Fatalf("observer %d: %v", i, err)
		}
		got, _ := o.FileContent("big.bin")
		if !bytes.Equal(got, payload) {
			t.Fatalf("observer %d diverged", i)
		}
	}
}

func TestEventsEmitted(t *testing.T) {
	r := newRig(t)
	a := r.newDevice("alice", "dev-a")
	b := r.newDevice("bob", "dev-b")

	if err := a.PutFile("e.txt", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	waitEvent := func(c *Client, want EventType) Event {
		t.Helper()
		select {
		case e := <-c.Events():
			if e.Type != want {
				t.Fatalf("event = %+v, want type %d", e, want)
			}
			return e
		case <-time.After(syncWait):
			t.Fatalf("no event of type %d", want)
			panic("unreachable")
		}
	}
	ea := waitEvent(a, LocalCommitted)
	if ea.Path != "e.txt" || ea.Version != 1 {
		t.Fatalf("local event: %+v", ea)
	}
	eb := waitEvent(b, RemoteApplied)
	if eb.Path != "e.txt" || eb.Version != 1 {
		t.Fatalf("remote event: %+v", eb)
	}
}

func TestWorkspacesRPC(t *testing.T) {
	r := newRig(t)
	a := r.newDevice("alice", "dev-a")
	ws, err := a.Workspaces()
	if err != nil {
		t.Fatal(err)
	}
	if len(ws) != 1 || ws[0].ID != "ws" {
		t.Fatalf("workspaces: %+v", ws)
	}
}

func TestRecreateAfterRemoveContinuesVersionChain(t *testing.T) {
	r := newRig(t)
	a := r.newDevice("alice", "dev-a")
	if err := a.PutFile("phoenix.txt", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if err := a.WaitForVersion("phoenix.txt", 1, syncWait); err != nil {
		t.Fatal(err)
	}
	if err := a.RemoveFile("phoenix.txt"); err != nil {
		t.Fatal(err)
	}
	if err := a.WaitForGone("phoenix.txt", syncWait); err != nil {
		t.Fatal(err)
	}
	if err := a.PutFile("phoenix.txt", []byte("v3")); err != nil {
		t.Fatal(err)
	}
	if err := a.WaitForVersion("phoenix.txt", 3, syncWait); err != nil {
		t.Fatal(err)
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := NewClient(Config{}); err == nil {
		t.Fatal("empty config accepted")
	}
	if _, err := NewClient(Config{UserID: "u", DeviceID: "d", WorkspaceID: "w"}); err == nil {
		t.Fatal("missing broker/storage accepted")
	}
}

func TestOperationsBeforeStartFail(t *testing.T) {
	r := newRig(t)
	b, err := omq.NewBroker(r.mq)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	c, err := NewClient(Config{
		UserID: "alice", DeviceID: "d", WorkspaceID: "ws",
		Broker: b, Storage: r.storage,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.PutFile("x", []byte("y")); !errors.Is(err, ErrNotStarted) {
		t.Fatalf("put before start: %v", err)
	}
	if err := c.RemoveFile("x"); !errors.Is(err, ErrNotStarted) {
		t.Fatalf("remove before start: %v", err)
	}
}

func TestConflictCopyPathShapes(t *testing.T) {
	tests := []struct {
		in, device, want string
	}{
		{"notes.txt", "dev-2", "notes (conflicted copy of dev-2).txt"},
		{"dir/sub/a.bin", "d", "dir/sub/a (conflicted copy of d).bin"},
		{"noext", "d", "noext (conflicted copy of d)"},
	}
	for _, tt := range tests {
		if got := ConflictCopyPath(tt.in, tt.device); got != tt.want {
			t.Fatalf("ConflictCopyPath(%q) = %q, want %q", tt.in, got, tt.want)
		}
	}
}

func TestLoadBalancedServiceInstances(t *testing.T) {
	// Two SyncService instances share the request queue; commits from many
	// clients spread across them and everything still converges.
	r := newRig(t)
	server2, err := omq.NewBroker(r.mq)
	if err != nil {
		t.Fatal(err)
	}
	defer server2.Close()
	svc2 := core.NewService(r.meta, server2)
	if _, err := svc2.Bind(); err != nil {
		t.Fatal(err)
	}

	a := r.newDevice("alice", "dev-a")
	b := r.newDevice("bob", "dev-b")
	const files = 20
	for i := 0; i < files; i++ {
		if err := a.PutFile(fmt.Sprintf("lb-%d.txt", i), []byte(fmt.Sprintf("content-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < files; i++ {
		if err := b.WaitForVersion(fmt.Sprintf("lb-%d.txt", i), 1, syncWait); err != nil {
			t.Fatal(err)
		}
	}
}

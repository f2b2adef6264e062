package core

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"stacksync/internal/metastore"
	"stacksync/internal/mq"
	"stacksync/internal/omq"
)

type rig struct {
	mq     *mq.Broker
	meta   *metastore.Store
	svc    *Service
	server *omq.Broker
	client *omq.Broker
}

func newRig(t *testing.T) *rig {
	t.Helper()
	m := mq.NewBroker()
	meta := metastore.NewStore()
	server, err := omq.NewBroker(m)
	if err != nil {
		t.Fatal(err)
	}
	client, err := omq.NewBroker(m)
	if err != nil {
		t.Fatal(err)
	}
	svc := NewService(meta, server)
	if _, err := svc.Bind(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		_ = client.Close()
		_ = server.Close()
		_ = meta.Close()
		_ = m.Close()
	})
	return &rig{mq: m, meta: meta, svc: svc, server: server, client: client}
}

func item(ws, id string, v uint64, status metastore.Status) metastore.ItemVersion {
	return metastore.ItemVersion{
		Workspace: ws, ItemID: id, Path: "/" + id, Version: v, Status: status,
		Size: 42, Chunks: []string{"fp1"}, DeviceID: "dev-test",
	}
}

func TestGetWorkspacesOverRPC(t *testing.T) {
	r := newRig(t)
	if err := r.meta.CreateWorkspace(metastore.Workspace{ID: "ws1", Owner: "alice"}); err != nil {
		t.Fatal(err)
	}
	var got []metastore.Workspace
	if err := r.client.Lookup(ServiceOID).Call("GetWorkspaces", &got, "alice"); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].ID != "ws1" {
		t.Fatalf("workspaces: %+v", got)
	}
	if err := r.client.Lookup(ServiceOID).Call("GetWorkspaces", &got, "stranger"); err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("stranger sees workspaces: %+v", got)
	}
}

func TestCommitAndGetChanges(t *testing.T) {
	r := newRig(t)
	if err := r.meta.CreateWorkspace(metastore.Workspace{ID: "ws1", Owner: "alice"}); err != nil {
		t.Fatal(err)
	}
	n, err := r.svc.commit(context.Background(), CommitRequest{
		Workspace: "ws1", DeviceID: "dev-test",
		Items: []metastore.ItemVersion{item("ws1", "f1", 1, metastore.Added)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(n.Results) != 1 || !n.Results[0].Committed {
		t.Fatalf("notification: %+v", n)
	}
	var state ChangesReply
	if err := r.client.Lookup(ServiceOID).Call("GetChangesSince", &state, "ws1", uint64(0)); err != nil {
		t.Fatal(err)
	}
	if !state.Full || len(state.Items) != 1 || state.Items[0].ItemID != "f1" || state.Items[0].Version != 1 {
		t.Fatalf("getChanges: %+v", state)
	}
}

// TestCommitConflictCarriesCurrentVersion pins what a CommitResult carries:
// a committed one has the accepted Item and a zero Proposed; a conflicting
// one has the authoritative current Item and the proposal's key only.
func TestCommitConflictCarriesCurrentVersion(t *testing.T) {
	r := newRig(t)
	if err := r.meta.CreateWorkspace(metastore.Workspace{ID: "ws1", Owner: "alice"}); err != nil {
		t.Fatal(err)
	}
	if _, err := r.svc.commit(context.Background(), CommitRequest{Workspace: "ws1", Items: []metastore.ItemVersion{item("ws1", "f", 1, metastore.Added)}}); err != nil {
		t.Fatal(err)
	}
	winner := item("ws1", "f", 2, metastore.Modified)
	winner.Chunks = []string{"winner-chunk"}
	won, err := r.svc.commit(context.Background(), CommitRequest{Workspace: "ws1", Items: []metastore.ItemVersion{winner}})
	if err != nil {
		t.Fatal(err)
	}
	// A committed Item already has the proposal's key, so nothing is echoed.
	if res := won.Results[0]; !res.Committed || !reflect.DeepEqual(res.Proposed, metastore.ItemVersion{}) {
		t.Fatalf("committed result must leave Proposed zero, got %+v", res)
	}
	// Loser proposes version 2 again.
	loser := item("ws1", "f", 2, metastore.Modified)
	loser.Chunks = []string{"loser-chunk"}
	n, err := r.svc.commit(context.Background(), CommitRequest{Workspace: "ws1", DeviceID: "dev-loser", Items: []metastore.ItemVersion{loser}})
	if err != nil {
		t.Fatal(err)
	}
	res := n.Results[0]
	if res.Committed {
		t.Fatal("stale proposal committed")
	}
	if res.Item.Version != 2 || res.Item.Path != "/f" || res.Item.Chunks[0] != "winner-chunk" {
		t.Fatalf("conflict must carry authoritative version, got %+v", res.Item)
	}
	if want := (metastore.ItemVersion{ItemID: "f", Version: 2}); !reflect.DeepEqual(res.Proposed, want) {
		t.Fatalf("conflict must echo only the proposal's key, got %+v", res.Proposed)
	}
}

func TestGetChangesUnknownWorkspace(t *testing.T) {
	r := newRig(t)
	var state ChangesReply
	err := r.client.Lookup(ServiceOID).Call("GetChangesSince", &state, "ghost", uint64(0))
	var remote *omq.RemoteError
	if !errors.As(err, &remote) {
		t.Fatalf("want RemoteError, got %v", err)
	}
}

// TestCommitRefusesItemOfAnotherWorkspace: items carry their workspace
// from the client, and one naming a workspace other than the request's is
// refused — alone or beside one of the request's own — with nothing
// committed anywhere, so no workspace changes behind its devices' backs.
func TestCommitRefusesItemOfAnotherWorkspace(t *testing.T) {
	r := newRig(t)
	for _, ws := range []string{"ws1", "ws2"} {
		if err := r.meta.CreateWorkspace(metastore.Workspace{ID: ws, Owner: "alice"}); err != nil {
			t.Fatal(err)
		}
	}
	for _, items := range [][]metastore.ItemVersion{
		{item("ws2", "f", 1, metastore.Added)},
		{item("ws1", "f", 1, metastore.Added), item("ws2", "g", 1, metastore.Added)},
	} {
		if _, err := r.svc.commit(context.Background(), CommitRequest{Workspace: "ws1", DeviceID: "dev-test", Items: items}); err == nil {
			t.Fatalf("request for ws1 with items %+v committed", items)
		}
	}
	for _, ws := range []string{"ws1", "ws2"} {
		if v, err := r.meta.CommitVersionOf(ws); err != nil || v != 0 {
			t.Fatalf("%s at version %d (%v) after refused requests", ws, v, err)
		}
	}
}

func TestCommitRequestOverAsyncRPC(t *testing.T) {
	r := newRig(t)
	if err := r.meta.CreateWorkspace(metastore.Workspace{ID: "ws1", Owner: "alice"}); err != nil {
		t.Fatal(err)
	}
	if err := r.client.Lookup(ServiceOID).Async("CommitRequest", CommitRequest{
		Workspace: "ws1", DeviceID: "d1",
		Items: []metastore.ItemVersion{item("ws1", "f9", 1, metastore.Added)},
	}); err != nil {
		t.Fatal(err)
	}
	// The async commit lands eventually; observe through a cold pull.
	deadline := 200
	for i := 0; i < deadline; i++ {
		var state ChangesReply
		if err := r.client.Lookup(ServiceOID).Call("GetChangesSince", &state, "ws1", uint64(0)); err != nil {
			t.Fatal(err)
		}
		if len(state.Items) == 1 {
			return
		}
	}
	t.Fatal("async commit never landed")
}

func TestWorkspaceOIDStable(t *testing.T) {
	if WorkspaceOID("abc") != "workspace.abc" {
		t.Fatalf("WorkspaceOID changed: %q", WorkspaceOID("abc"))
	}
}

func TestGetChangesSinceOverRPC(t *testing.T) {
	r := newRig(t)
	if err := r.meta.CreateWorkspace(metastore.Workspace{ID: "ws1", Owner: "alice"}); err != nil {
		t.Fatal(err)
	}
	for _, it := range []metastore.ItemVersion{
		item("ws1", "f1", 1, metastore.Added),
		item("ws1", "f2", 1, metastore.Added),
		item("ws1", "f1", 2, metastore.Modified),
	} {
		if _, err := r.meta.CommitVersion(it); err != nil {
			t.Fatal(err)
		}
	}
	call := func(since uint64) ChangesReply {
		t.Helper()
		var reply ChangesReply
		if err := r.client.Lookup(ServiceOID).Call("GetChangesSince", &reply, "ws1", since); err != nil {
			t.Fatal(err)
		}
		return reply
	}

	// Cold start: full live state at the current version.
	cold := call(0)
	if !cold.Full || cold.Version != 3 || len(cold.Items) != 2 {
		t.Fatalf("cold reply: %+v", cold)
	}

	// Warm reconnect: only the log tail after the cursor, in commit order.
	warm := call(1)
	if warm.Full || warm.Version != 3 || len(warm.Items) != 2 {
		t.Fatalf("warm reply: %+v", warm)
	}
	if warm.Items[0].ItemID != "f2" || warm.Items[1].ItemID != "f1" || warm.Items[1].Version != 2 {
		t.Fatalf("warm tail order: %+v", warm.Items)
	}

	// Caught up: empty tail at the same version.
	if up := call(3); up.Full || len(up.Items) != 0 || up.Version != 3 {
		t.Fatalf("caught-up reply: %+v", up)
	}

	// Cursor behind the compaction watermark: full-state fallback, flagged.
	if _, err := r.meta.CompactLog("ws1", 0); err != nil {
		t.Fatal(err)
	}
	fb := call(1)
	if !fb.Full || fb.Version != 3 || len(fb.Items) != 2 {
		t.Fatalf("fallback reply: %+v", fb)
	}

	// Unknown workspace surfaces as a remote error.
	var reply ChangesReply
	err := r.client.Lookup(ServiceOID).Call("GetChangesSince", &reply, "ghost", uint64(0))
	var remote *omq.RemoteError
	if !errors.As(err, &remote) {
		t.Fatalf("want RemoteError, got %v", err)
	}
}

// holdMQ holds every publish to a multicast exchange until release is
// called, signalling held as each one arrives.
type holdMQ struct {
	mq.MQ
	held    chan struct{}
	unblock chan struct{}
	release func()
}

func newHoldMQ(m mq.MQ) *holdMQ {
	h := &holdMQ{MQ: m, held: make(chan struct{}, 1), unblock: make(chan struct{})}
	h.release = sync.OnceFunc(func() { close(h.unblock) })
	return h
}

func (h *holdMQ) Publish(exchange, key string, msg mq.Message) error {
	if strings.HasSuffix(exchange, ".multi") {
		h.held <- struct{}{}
		<-h.unblock
	}
	return h.MQ.Publish(exchange, key, msg)
}

// notifySink is a device's workspace handler: it hands on each notification.
type notifySink chan CommitNotification

func (s notifySink) NotifyCommit(n CommitNotification) { s <- n }

// TestNotificationPublishedBeforeRequestAcked: the SyncService publishes a
// commit's notification before its CommitRequest handler returns, so omq
// acks the request only once the notification is in the broker. While the
// publish is held, the request stays unacked; once released, it is acked
// and the device gets the notification. The group's proxy adds no retry
// series.
func TestNotificationPublishedBeforeRequestAcked(t *testing.T) {
	m := mq.NewBroker()
	hold := newHoldMQ(m)
	meta := metastore.NewStore()
	server, err := omq.NewBroker(hold)
	if err != nil {
		t.Fatal(err)
	}
	device, err := omq.NewBroker(m)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		hold.release()
		_ = device.Close()
		_ = server.Close()
		_ = meta.Close()
		_ = m.Close()
	})
	if _, err := NewService(meta, server).Bind(); err != nil {
		t.Fatal(err)
	}
	if err := meta.CreateWorkspace(metastore.Workspace{ID: "ws1", Owner: "alice"}); err != nil {
		t.Fatal(err)
	}
	got := make(notifySink, 1)
	if _, err := device.Bind(WorkspaceOID("ws1"), got); err != nil {
		t.Fatal(err)
	}

	if err := device.Lookup(ServiceOID).Async("CommitRequest", CommitRequest{
		Workspace: "ws1", DeviceID: "d1",
		Items: []metastore.ItemVersion{item("ws1", "f", 1, metastore.Added)},
	}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-hold.held:
	case <-time.After(5 * time.Second):
		t.Fatal("the notification was never published")
	}
	stats := func() mq.QueueStats {
		t.Helper()
		st, err := m.QueueStats(ServiceOID)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	for end := time.Now().Add(100 * time.Millisecond); time.Now().Before(end); time.Sleep(5 * time.Millisecond) {
		if st := stats(); st.Unacked != 1 || st.Acked != 0 {
			t.Fatalf("request settled while its notification is held: %+v", st)
		}
	}

	hold.release()
	select {
	case n := <-got:
		if n.Workspace != "ws1" || len(n.Results) != 1 || !n.Results[0].Committed {
			t.Fatalf("notification: %+v", n)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the device never got the notification")
	}
	for end := time.Now().Add(time.Second); ; time.Sleep(5 * time.Millisecond) {
		st := stats()
		if st.Acked == 1 && st.Unacked == 0 {
			break
		}
		if time.Now().After(end) {
			t.Fatalf("request not acked after the publish: %+v", st)
		}
	}
	// The workspace group's proxy only publishes, so it registers no series.
	server.Registry().EachCounter("omq_retry_attempts_total", func(labels []string, _ uint64) {
		t.Errorf("a publish-only proxy registered omq_retry_attempts_total %v", labels)
	})
}

// TestRefusedCommitRequestIsAckedOnce: a commit request that can never
// succeed (an unknown workspace, an item of another workspace) is counted
// and acked at its first delivery, so a valid request behind it on the same
// instance commits at once instead of waiting out its redeliveries.
func TestRefusedCommitRequestIsAckedOnce(t *testing.T) {
	r := newRig(t)
	for _, ws := range []string{"ws1", "ws2"} {
		if err := r.meta.CreateWorkspace(metastore.Workspace{ID: ws, Owner: "alice"}); err != nil {
			t.Fatal(err)
		}
	}
	svc := r.client.Lookup(ServiceOID)
	for _, req := range []CommitRequest{
		{Workspace: "ghost", DeviceID: "d1", Items: []metastore.ItemVersion{item("ghost", "f", 1, metastore.Added)}},
		{Workspace: "ws1", DeviceID: "d1", Items: []metastore.ItemVersion{item("ws2", "f", 1, metastore.Added)}},
		{Workspace: "ws1", DeviceID: "d1", Items: []metastore.ItemVersion{item("ws1", "f", 1, metastore.Added)}},
	} {
		if err := svc.Async("CommitRequest", req); err != nil {
			t.Fatal(err)
		}
	}
	for end := time.Now().Add(time.Second); ; time.Sleep(5 * time.Millisecond) {
		st, err := r.mq.QueueStats(ServiceOID)
		if err != nil {
			t.Fatal(err)
		}
		if st.Acked == 3 {
			if st.Redelivered != 0 {
				t.Fatalf("refused requests were redelivered: %+v", st)
			}
			break
		}
		if time.Now().After(end) {
			t.Fatalf("requests not all acked within 1 s: %+v", st)
		}
	}
	if v, err := r.meta.CommitVersionOf("ws1"); err != nil || v != 1 {
		t.Fatalf("ws1 at version %d (%v), want the valid request committed", v, err)
	}
	if v, err := r.meta.CommitVersionOf("ws2"); err != nil || v != 0 {
		t.Fatalf("ws2 at version %d (%v), want nothing committed", v, err)
	}
	if n := r.server.Registry().CounterValue("core_commit_refused_total"); n != 2 {
		t.Fatalf("core_commit_refused_total = %d, want 2", n)
	}
}

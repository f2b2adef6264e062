package core

import (
	"context"
	"crypto/sha1"
	"encoding/hex"
	"fmt"
	"testing"

	"stacksync/internal/codec"
	"stacksync/internal/metastore"
	"stacksync/internal/mq"
	"stacksync/internal/omq"
)

// notifyWS is the notifyRig's workspace.
const notifyWS = "w00"

// notifyRig is a SyncService with one device's notification queue bound to
// notifyWS's fanout exchange.
type notifyRig struct {
	svc *Service
	sub mq.Subscription
}

func newNotifyRig(tb testing.TB) notifyRig {
	m := mq.NewBroker()
	meta := metastore.NewStore()
	server, err := omq.NewBroker(m)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() {
		_ = server.Close()
		_ = meta.Close()
		_ = m.Close()
	})
	if err := meta.CreateWorkspace(metastore.Workspace{ID: notifyWS, Owner: "bench"}); err != nil {
		tb.Fatal(err)
	}
	svc := NewService(meta, server)
	oid := WorkspaceOID(notifyWS)
	if err := server.EnsureMulticastGroup(oid); err != nil {
		tb.Fatal(err)
	}
	// A bare queue on the workspace's fanout exchange stands in for one
	// device's private notification queue.
	if err := m.DeclareQueue("device"); err != nil {
		tb.Fatal(err)
	}
	if err := m.BindQueue("device", oid+".multi", ""); err != nil {
		tb.Fatal(err)
	}
	sub, err := m.Subscribe("device", 1)
	if err != nil {
		tb.Fatal(err)
	}
	return notifyRig{svc: svc, sub: sub}
}

// deliver commits the i-th one-item, one-chunk file, with ids hashed as a
// device hashes them, and returns the notification the device receives.
func (r notifyRig) deliver(tb testing.TB, i int) []byte {
	hexSum := func(s string) string { sum := sha1.Sum([]byte(s)); return hex.EncodeToString(sum[:]) }
	path := fmt.Sprintf("dir/file-%06d.bin", i)
	fp := hexSum(path + "#0")
	item := metastore.ItemVersion{
		Workspace: notifyWS, ItemID: hexSum(notifyWS + "|" + path), Path: path, Version: 1,
		Status: metastore.Added, Size: 4096, Chunks: []string{fp}, Checksum: fp, DeviceID: "w00-d01",
	}
	if _, err := r.svc.commit(context.Background(), CommitRequest{Workspace: notifyWS, DeviceID: item.DeviceID, Items: []metastore.ItemVersion{item}}); err != nil {
		tb.Fatal(err)
	}
	d := <-r.sub.Deliveries()
	if err := d.Ack(); err != nil {
		tb.Fatal(err)
	}
	return d.Body
}

// BenchmarkNotifyDelivery measures what one device receives per commit: the
// encoded omq envelope of a one-item, one-chunk NotifyCommit, published by
// the SyncService's own commit path. B/delivery is the layer number behind
// control_bytes_per_commit on the fanout workload, which multiplies it by
// the workspace's device count.
func BenchmarkNotifyDelivery(b *testing.B) {
	rig := newNotifyRig(b)
	var delivered int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		delivered += len(rig.deliver(b, i))
	}
	b.StopTimer()
	b.ReportMetric(float64(delivered)/float64(b.N), "B/delivery")
}

// TestNotifyDeliverySize pins BenchmarkNotifyDelivery's number: the
// notification of a one-item, one-chunk commit is at most 162 B, which
// holds only while its three SHA-1 hex ids travel as raw bytes (262 B as
// hex text), its item repeats neither the workspace, the device nor the
// commit time, and its one-way envelope sends no reply-routing fields
// (202 B with all three).
func TestNotifyDeliverySize(t *testing.T) {
	if n := len(newNotifyRig(t).deliver(t, 0)); n > 162 {
		t.Fatalf("one-chunk notification is %d B, want <= 162", n)
	}
}

// TestNotificationItemsCarryNoWorkspaceDeviceOrTime pins what a delivered
// notification's item leaves out: the workspace and the committing device,
// which the notification names once, and the commit time, which only the
// metastore reads. A cold pull still returns all three.
func TestNotificationItemsCarryNoWorkspaceDeviceOrTime(t *testing.T) {
	rig := newNotifyRig(t)
	body := rig.deliver(t, 0)
	// The omq request envelope's leading fields; the decoder skips the rest.
	var env struct {
		Method string
		Args   [][]byte
	}
	bin := codec.Default()
	if err := bin.Unmarshal(body, &env); err != nil || len(env.Args) != 1 {
		t.Fatalf("envelope: %v (%d args)", err, len(env.Args))
	}
	var n CommitNotification
	if err := bin.Unmarshal(env.Args[0], &n); err != nil {
		t.Fatal(err)
	}
	if n.Workspace != notifyWS || n.DeviceID != "w00-d01" || len(n.Results) != 1 {
		t.Fatalf("notification: %+v", n)
	}
	if it := n.Results[0].Item; it.Workspace != "" || it.DeviceID != "" || !it.CommittedAt.IsZero() || it.ItemID == "" || it.Version != 1 {
		t.Fatalf("notification item: %+v, want no workspace, device or commit time", it)
	}
	state, err := rig.svc.API().GetChangesSince(context.Background(), notifyWS, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(state.Items) != 1 {
		t.Fatalf("cold pull: %+v", state)
	}
	if it := state.Items[0]; it.Workspace != notifyWS || it.DeviceID != "w00-d01" || it.CommittedAt.IsZero() {
		t.Fatalf("cold pull item: %+v, want workspace, device and commit time", it)
	}
}

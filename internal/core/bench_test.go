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

// codecPair is what BenchmarkCodec encodes: a device's one-item, one-chunk
// commit request and the notification the service sends for it, with ids
// shaped as the benchmark rig's (w05, w05-d00, f000123.dat, SHA-1 hex).
func codecPair() (CommitRequest, CommitNotification) {
	hexSum := func(s string) string { sum := sha1.Sum([]byte(s)); return hex.EncodeToString(sum[:]) }
	fp := hexSum("f000123.dat#0")
	item := metastore.ItemVersion{
		Workspace: "w05", ItemID: hexSum("w05|f000123.dat"), Path: "f000123.dat", Version: 1,
		Status: metastore.Added, Size: 1024, Chunks: []string{fp}, Checksum: fp, DeviceID: "w05-d00",
	}
	req := CommitRequest{Workspace: item.Workspace, DeviceID: item.DeviceID, Items: []metastore.ItemVersion{item}}
	sent := item
	sent.Workspace, sent.DeviceID = "", ""
	return req, CommitNotification{Workspace: item.Workspace, DeviceID: item.DeviceID,
		Results: []CommitResult{{Committed: true, Item: sent}}}
}

// BenchmarkCodec is the codec's layer number: the time and allocations to
// marshal and to unmarshal a commit request and a notification, and their
// encoded size (body_B/op), without the omq envelope around them.
func BenchmarkCodec(b *testing.B) {
	bin := codec.Default()
	req, notif := codecPair()
	for _, tc := range []struct {
		name string
		in   any
		out  func() any
	}{
		{"request", req, func() any { return new(CommitRequest) }},
		{"notification", notif, func() any { return new(CommitNotification) }},
	} {
		body, err := bin.MarshalAppend(nil, tc.in)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(tc.name+"/marshal", func(b *testing.B) {
			b.ReportAllocs()
			buf := make([]byte, 0, 2*len(body))
			for i := 0; i < b.N; i++ {
				if buf, err = bin.MarshalAppend(buf[:0], tc.in); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(body)), "body_B/op")
		})
		b.Run(tc.name+"/unmarshal", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := bin.Unmarshal(body, tc.out()); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(body)), "body_B/op")
		})
	}
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
// notification of a one-item, one-chunk commit is at most 125 B, which
// holds only while the codec is positional (160 B with a tag on every value
// and a length on every struct field), its three SHA-1 hex ids travel as
// raw bytes, its item repeats neither the workspace, the device nor the
// commit time, and its one-way envelope sends no reply-routing fields.
func TestNotifyDeliverySize(t *testing.T) {
	if n := len(newNotifyRig(t).deliver(t, 0)); n > 125 {
		t.Fatalf("one-chunk notification is %d B, want <= 125", n)
	}
}

// TestNotificationItemsCarryNoWorkspaceDeviceOrTime pins what a delivered
// notification's item leaves out: the workspace and the committing device,
// which the notification names once, and the commit time, which only the
// metastore reads. A cold pull still returns all three.
func TestNotificationItemsCarryNoWorkspaceDeviceOrTime(t *testing.T) {
	rig := newNotifyRig(t)
	body := rig.deliver(t, 0)
	// The omq request envelope as a one-way call sends it: it ends at its
	// flag, and a positional decoder refuses a shorter struct.
	var env struct {
		Method string
		Args   [][]byte
		OneWay bool
	}
	bin := codec.Default()
	if err := bin.Unmarshal(body, &env); err != nil || len(env.Args) != 1 || !env.OneWay {
		t.Fatalf("envelope: %v (%d args, one-way %v)", err, len(env.Args), env.OneWay)
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

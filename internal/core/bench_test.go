package core

import (
	"context"
	"crypto/sha1"
	"encoding/hex"
	"fmt"
	"testing"

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
// device hashes them, and returns the size of the notification the device
// receives.
func (r notifyRig) deliver(tb testing.TB, i int) int {
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
	return len(d.Body)
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
		delivered += rig.deliver(b, i)
	}
	b.StopTimer()
	b.ReportMetric(float64(delivered)/float64(b.N), "B/delivery")
}

// TestNotifyDeliverySize pins BenchmarkNotifyDelivery's number: the
// notification of a one-item, one-chunk commit is at most 202 B, which
// holds only while its three SHA-1 hex ids travel as raw bytes (262 B as
// hex text).
func TestNotifyDeliverySize(t *testing.T) {
	if n := newNotifyRig(t).deliver(t, 0); n > 202 {
		t.Fatalf("one-chunk notification is %d B, want <= 202", n)
	}
}

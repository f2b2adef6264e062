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

// BenchmarkNotifyDelivery measures what one device receives per commit: the
// encoded omq envelope of a one-item, one-chunk NotifyCommit, published by
// the SyncService's own commit path. B/delivery is the layer number behind
// control_bytes_per_commit on the fanout workload, which multiplies it by
// the workspace's device count.
func BenchmarkNotifyDelivery(b *testing.B) {
	m := mq.NewBroker()
	meta := metastore.NewStore()
	server, err := omq.NewBroker(m)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() {
		_ = server.Close()
		_ = meta.Close()
		_ = m.Close()
	})
	const ws = "w00"
	if err := meta.CreateWorkspace(metastore.Workspace{ID: ws, Owner: "bench"}); err != nil {
		b.Fatal(err)
	}
	svc := NewService(meta, server)
	oid := WorkspaceOID(ws)
	if err := server.EnsureMulticastGroup(oid); err != nil {
		b.Fatal(err)
	}
	// A bare queue on the workspace's fanout exchange stands in for one
	// device's private notification queue.
	if err := m.DeclareQueue("device"); err != nil {
		b.Fatal(err)
	}
	if err := m.BindQueue("device", oid+".multi", ""); err != nil {
		b.Fatal(err)
	}
	sub, err := m.Subscribe("device", 1)
	if err != nil {
		b.Fatal(err)
	}
	hexSum := func(s string) string { sum := sha1.Sum([]byte(s)); return hex.EncodeToString(sum[:]) }

	var delivered int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		path := fmt.Sprintf("dir/file-%06d.bin", i)
		fp := hexSum(path + "#0")
		item := metastore.ItemVersion{
			Workspace: ws, ItemID: hexSum(ws + "|" + path), Path: path, Version: 1,
			Status: metastore.Added, Size: 4096, Chunks: []string{fp}, Checksum: fp, DeviceID: "w00-d01",
		}
		if _, err := svc.commit(context.Background(), CommitRequest{Workspace: ws, DeviceID: item.DeviceID, Items: []metastore.ItemVersion{item}}); err != nil {
			b.Fatal(err)
		}
		d := <-sub.Deliveries()
		delivered += len(d.Body)
		if err := d.Ack(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(delivered)/float64(b.N), "B/delivery")
}

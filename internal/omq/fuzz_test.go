package omq_test

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"stacksync/internal/chunker"
	"stacksync/internal/client"
	"stacksync/internal/codec"
	"stacksync/internal/core"
	"stacksync/internal/metastore"
	"stacksync/internal/mq"
	"stacksync/internal/omq"
)

// FuzzBinaryCodec feeds arbitrary bytes to codec.Binary.Unmarshal for every
// type a server or client decodes off the wire: the omq request and
// response envelopes, the SyncService's commit request, notification,
// changes reply and workspace list, and the mq stats reply.
// Nothing may panic, and whatever decodes must re-encode and decode back to
// the same value and the same bytes — a corrupt or hostile peer gets an
// error, never a crash or a value that drifts on relay.
func FuzzBinaryCodec(f *testing.F) {
	bin := codec.Default()
	item := metastore.ItemVersion{
		Workspace: "ws-1", ItemID: "item-1", Path: "/docs/a.txt", Version: 3,
		Status: metastore.Modified, Size: 4096, Chunks: []string{"fp-a", "fp-b"},
		Checksum: "sum", DeviceID: "dev-1", CommittedAt: time.Unix(1418030000, 5).UTC(),
	}
	key := metastore.ItemVersion{ItemID: item.ItemID, Version: item.Version}
	proposal := item
	proposal.CommittedAt = time.Time{} // as a device proposes it: trailing zero, not sent
	// The ids a device really sends are lowercase hex, which the codec sends
	// as raw bytes; the near misses (odd length, upper case) stay strings.
	fp := chunker.Fingerprint([]byte("chunk"))
	hexItem := item
	hexItem.ItemID, hexItem.Chunks, hexItem.Checksum = client.ItemID("ws-1", item.Path), []string{fp}, fp
	nearMiss := item
	nearMiss.ItemID, nearMiss.Chunks, nearMiss.Checksum = fp[1:], []string{strings.ToUpper(fp), "ab"}, "0"
	// A notification's item as the service sends it: no workspace, device
	// or commit time.
	trimmed := hexItem
	trimmed.Workspace, trimmed.DeviceID, trimmed.CommittedAt = "", "", time.Time{}
	// A log tail's tombstone: the deleted version keeps its key, no chunks.
	tombstone := hexItem
	tombstone.Version, tombstone.Status, tombstone.Size, tombstone.Chunks, tombstone.Checksum = 4, metastore.Deleted, 0, nil, ""
	for _, v := range []any{
		core.CommitRequest{Workspace: "ws-1", DeviceID: "dev-1", Items: []metastore.ItemVersion{item}},
		core.CommitRequest{Workspace: "ws-1", DeviceID: "dev-1", Items: []metastore.ItemVersion{proposal}},
		core.CommitRequest{Workspace: "ws-1", DeviceID: "dev-1", Items: []metastore.ItemVersion{hexItem, nearMiss}},
		core.CommitNotification{Workspace: "ws-1", DeviceID: "dev-1",
			Results: []core.CommitResult{{Committed: false, Item: item, Proposed: key}}},
		core.CommitNotification{Workspace: "ws-1", DeviceID: "dev-1", // committed: no echo
			Results: []core.CommitResult{{Committed: true, Item: item}}},
		core.CommitNotification{Workspace: "ws-1", DeviceID: "dev-1", Results: []core.CommitResult{
			{Committed: true, Item: hexItem},
			{Committed: false, Item: nearMiss, Proposed: metastore.ItemVersion{ItemID: hexItem.ItemID, Version: 2}}}},
		core.CommitNotification{Workspace: "ws-1", DeviceID: "dev-1",
			Results: []core.CommitResult{{Committed: true, Item: trimmed}}},
		omq.Request{Method: "NotifyCommit", Args: [][]byte{{1, 2}}, OneWay: true}, // ends at its flag
		omq.Request{Method: "GetChangesSince", Args: [][]byte{{1, 2}}, CorrelationID: "c", ReplyTo: "r", RequestID: "q"},
		omq.Response{CorrelationID: "c", Result: []byte{3}, Err: "boom", From: "svc-0"},
		core.ChangesReply{Workspace: "ws-1", Version: 9, Full: true, Items: []metastore.ItemVersion{item, hexItem, nearMiss}},
		core.ChangesReply{Workspace: "ws-1", Since: 3, Version: 4, Items: []metastore.ItemVersion{tombstone}}, // a tail
		[]metastore.Workspace{{ID: "ws-1", Owner: "u1", Members: []string{"u1", "u2"}}, {ID: "ws-2", Owner: "u2"}},
		mq.QueueStats{Name: "syncservice", Depth: 3, Unacked: 1, Consumers: 2, Enqueued: 90, Acked: 86, Redelivered: 1, ArrivalRate: 12.5},
	} {
		data, err := bin.MarshalAppend(nil, v)
		if err != nil {
			f.Fatal(err)
		}
		// Every seed round-trips byte for byte through its own type.
		back := reflect.New(reflect.TypeOf(v))
		if err := bin.Unmarshal(data, back.Interface()); err != nil {
			f.Fatalf("%T seed does not decode: %v", v, err)
		}
		if again, _ := bin.MarshalAppend(nil, back.Elem().Interface()); !bytes.Equal(data, again) {
			f.Fatalf("%T seed does not round-trip:\n %x\n %x", v, data, again)
		}
		f.Add(data)
		f.Add(data[:len(data)/2])
	}
	f.Add([]byte(`{"method":"Add","args":["eyJhIjoxfQ=="],"codec":"json"}`)) // pre-binary envelope
	f.Add([]byte{})
	// A struct encoding with one field more than its type: the response
	// envelope's four fields and a fifth. The codec has no evolution path,
	// so every struct target refuses it.
	over, err := bin.MarshalAppend(nil, struct{ A, B, C, D, E string }{"c", "r", "e", "f", "x"})
	if err != nil {
		f.Fatal(err)
	}
	if bin.Unmarshal(over, new(omq.Response)) == nil {
		f.Fatal("a 5-field struct decoded into the 4-field response envelope")
	}
	f.Add(over)

	targets := []func() any{
		func() any { return new(omq.Request) },
		func() any { return new(omq.Response) },
		func() any { return new(core.CommitRequest) },
		func() any { return new(core.CommitNotification) },
		func() any { return new(core.ChangesReply) },
		func() any { return new([]metastore.Workspace) },
		func() any { return new(mq.QueueStats) },
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, newTarget := range targets {
			got := newTarget()
			if bin.Unmarshal(data, got) != nil {
				continue
			}
			enc, err := bin.MarshalAppend(nil, got)
			if err != nil {
				t.Fatalf("%T decoded but does not re-encode: %v", got, err)
			}
			back := newTarget()
			if err := bin.Unmarshal(enc, back); err != nil {
				t.Fatalf("%T re-encoding does not decode: %v", got, err)
			}
			// %#v rather than reflect.DeepEqual: it tells nil from empty
			// slices, but compares a time.Time by its instant, since
			// time.UnmarshalBinary keeps out-of-range nanoseconds in the
			// internal representation while meaning the same instant.
			if a, b := fmt.Sprintf("%#v", got), fmt.Sprintf("%#v", back); a != b {
				t.Fatalf("%T drifted on round trip:\n decoded:    %s\n re-decoded: %s", got, a, b)
			}
			if enc2, _ := bin.MarshalAppend(nil, back); !bytes.Equal(enc, enc2) {
				t.Fatalf("%T encoding unstable:\n %x\n %x", got, enc, enc2)
			}
		}
	})
}

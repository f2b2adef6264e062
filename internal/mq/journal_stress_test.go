package mq

import (
	"bytes"
	"fmt"
	"path/filepath"
	"sync"
	"testing"
)

// TestJournalRecoveryUnderConcurrentLoad publishes persistent messages from
// many goroutines while consumers ack a random prefix, then "crashes" the
// broker and verifies recovery reflects exactly the unacked set.
func TestJournalRecoveryUnderConcurrentLoad(t *testing.T) {
	path := filepath.Join(t.TempDir(), "stress.journal")
	b, err := RecoverBroker(path)
	if err != nil {
		t.Fatal(err)
	}
	mustDeclare(t, b, "q")

	const (
		producers = 4
		perProd   = 50
		toAck     = 60
	)
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perProd; i++ {
				id := fmt.Sprintf("p%d-%d", p, i)
				if err := b.Publish("", "q", Message{ID: id, Body: []byte(id), Persistent: true}); err != nil {
					t.Errorf("publish %s: %v", id, err)
					return
				}
			}
		}(p)
	}
	wg.Wait()

	sub, err := b.Subscribe("q", 4)
	if err != nil {
		t.Fatal(err)
	}
	ackedIDs := make(map[string]bool, toAck)
	for i := 0; i < toAck; i++ {
		d := recvDelivery(t, sub)
		if err := d.Ack(); err != nil {
			t.Fatal(err)
		}
		ackedIDs[d.Message.ID] = true
	}
	// Crash without draining the rest.
	_ = b.Close()

	b2, err := RecoverBroker(path)
	if err != nil {
		t.Fatal(err)
	}
	defer b2.Close()
	stats, err := b2.QueueStats("q")
	if err != nil {
		t.Fatal(err)
	}
	want := producers*perProd - toAck
	if stats.Depth != want {
		t.Fatalf("recovered depth = %d, want %d", stats.Depth, want)
	}
	// Drain and verify the recovered set is exactly the complement.
	sub2, err := b2.Subscribe("q", 8)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[string]bool, want)
	for i := 0; i < want; i++ {
		d := recvDelivery(t, sub2)
		if ackedIDs[d.Message.ID] {
			t.Fatalf("acked message %s resurrected", d.Message.ID)
		}
		if seen[d.Message.ID] {
			t.Fatalf("message %s recovered twice", d.Message.ID)
		}
		seen[d.Message.ID] = true
		_ = d.Ack()
	}
}

// TestJournalLargeBatchThenConcurrentPublishes hands the flusher a batch of
// over a MiB and then publishes small messages from many goroutines while a
// consumer acks: appends must never land in an array a write still reads.
// The 8 KB messages first give any buffer the journal recycles room for the
// small ones. Run under -race; the recovered bodies show a torn record too.
func TestJournalLargeBatchThenConcurrentPublishes(t *testing.T) {
	path := journalPath(t)
	b := newJournaledBroker(t, path)
	mustDeclare(t, b, "q")
	mustDeclare(t, b, "acked")
	body := func(id string) []byte {
		switch id[0] {
		case 'b':
			return bytes.Repeat([]byte(id), 2<<20/len(id))
		case 's':
			return bytes.Repeat([]byte(id), 8<<10/len(id))
		}
		return []byte("body of " + id)
	}
	publish := func(queue, id string) {
		if err := b.Publish("", queue, Message{ID: id, Body: body(id), Persistent: true}); err != nil {
			t.Errorf("publish %s: %v", id, err)
		}
	}
	for _, id := range []string{"s1", "s2", "s3", "big"} {
		publish("q", id)
	}

	const producers, perProd = 8, 100
	sub, err := b.Subscribe("acked", 4)
	if err != nil {
		t.Fatal(err)
	}
	acked := make(chan struct{})
	go func() { // acks interleave their records with the publishes
		defer close(acked)
		n := 0
		for d := range sub.Deliveries() {
			if err := d.Ack(); err != nil {
				t.Errorf("ack: %v", err)
				return
			}
			if n++; n == producers*perProd {
				return
			}
		}
	}()
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perProd; i++ {
				id := fmt.Sprintf("p%d-%d", p, i)
				publish("q", id)
				publish("acked", id)
			}
		}(p)
	}
	wg.Wait()
	if t.Failed() {
		_ = sub.Cancel() // a publish that failed leaves the consumer short: release it
	}
	<-acked
	_ = b.Close()

	b2 := mustRecover(t, path)
	wantIDs(t, b2, "acked")
	sub2, err := b2.Subscribe("q", 1)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[string]bool)
	for i := 0; i < 4+producers*perProd; i++ {
		d := recvDelivery(t, sub2)
		if seen[d.Message.ID] || !bytes.Equal(d.Body, body(d.Message.ID)) {
			t.Fatalf("message %s recovered twice or with a damaged body (%d bytes)", d.Message.ID, len(d.Body))
		}
		seen[d.Message.ID] = true
		_ = d.Ack()
	}
}

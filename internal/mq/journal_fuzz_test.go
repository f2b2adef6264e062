package mq

import (
	"bytes"
	"os"
	"reflect"
	"testing"

	"stacksync/internal/reclog"
)

// frameRecords writes the magic, then data cut into records by a length
// byte before each payload, framed by the record log. A zero length byte
// frames nothing: an empty payload is not a record.
func frameRecords(data []byte) []byte {
	out := []byte(journalMagic)
	for len(data) > 0 {
		n := min(int(data[0]), len(data)-1)
		if n > 0 {
			out = reclog.Frame(out, data[1:1+n])
		}
		data = data[1+n:]
	}
	return out
}

// queueContents maps every queue to the ids waiting on it.
func queueContents(t *testing.T, b *Broker) map[string][]string {
	t.Helper()
	state := make(map[string][]string)
	for _, q := range b.Queues() {
		state[q] = queueIDs(t, b, q)
	}
	return state
}

// FuzzJournalReplay throws arbitrary bytes at recovery, raw and — so that
// the record decoder is reached past the checksum — cut into well-framed
// records of arbitrary payload. Recovery may refuse a file that is not a
// journal, but it must never panic, and when it accepts: recovering what it
// wrote gives the same state; what is acked afterwards stays acked; and the
// file takes appends that the next recovery reads back.
func FuzzJournalReplay(f *testing.F) {
	path := f.TempDir() + "/seed.journal"
	b, err := RecoverBroker(path)
	if err != nil {
		f.Fatal(err)
	}
	_ = b.DeclareExchange("fan", Fanout)
	for _, q := range []string{"a", "b"} {
		_ = b.DeclareQueue(q)
		_ = b.BindQueue(q, "fan", "")
	}
	_ = b.Publish("fan", "", Message{Headers: map[string]string{"k": "v"}, Body: []byte("one"), Persistent: true})
	_ = b.Publish("", "b", Message{ID: "two", Persistent: true})
	sub, _ := b.Subscribe("a", 1)
	d := <-sub.Deliveries()
	_ = d.Ack()
	_ = b.DeleteQueue("a")
	_ = b.Close()
	seed, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed, false)
	f.Add(seed[:len(seed)-3], false)
	f.Add(seed[:5], false)
	f.Add([]byte(`{"op":"declq","queue":"q"}`+"\n"), false)
	f.Add([]byte{}, false)
	f.Add(append(bytes.Clone(seed), make([]byte, 4096)...), false) // a zero tail, as the writer preallocates
	f.Add([]byte{
		4, recDeclareQueue, 1, 0, 1, 'q', // declare queue 1 "q"
		4, recDeclareQueue, 2, 0, 1, 'r',
		5, recDeclareExchange, byte(Fanout), 0, 1, 'x',
		6, recBind, 2, 0, 1, 'x', 0,
		10, recPublish, 7, 2, 1, 2, 1, 'i', 1, 1, 'k', 1, 'v', 'B', // LSN 7 to queues 1 and 2
		3, recAck, 1, 7,
		3, recSeq, 9, 0,
		3, recDeleteQueue, 2, 0,
		6, recPublish, 8, 1, 1, 0, 0, // no id, no headers, no body
		6, recPublish, 8, 1, 1, 0, 0, // LSN 8 again while it is live: malformed
	}, true)

	f.Fuzz(func(t *testing.T, data []byte, framed bool) {
		if framed {
			data = frameRecords(data)
		}
		path := writeJournalFile(t, data)
		b, err := RecoverBroker(path)
		if err != nil {
			return // refusing a file is fine; panicking is not
		}
		recovered := queueContents(t, b)
		if err := b.Close(); err != nil {
			t.Fatal(err)
		}

		b2, err := RecoverBroker(path)
		if err != nil {
			t.Fatalf("recovery of a compacted journal: %v", err)
		}
		if again := queueContents(t, b2); !reflect.DeepEqual(again, recovered) {
			t.Fatalf("second recovery holds %v, the first held %v", again, recovered)
		}
		for q, ids := range recovered {
			ackN(t, b2, q, len(ids))
		}
		mustDeclare(t, b2, "fz")
		ackN(t, b2, "fz", len(queueIDs(t, b2, "fz"))) // the input may have bound fz to something
		mustPublish(t, b2, "", "fz", "fz-kept")
		if err := b2.Close(); err != nil {
			t.Fatal(err)
		}

		b3, err := RecoverBroker(path)
		if err != nil {
			t.Fatalf("recovery after appends: %v", err)
		}
		defer b3.Close()
		for q, ids := range queueContents(t, b3) {
			if q == "fz" && reflect.DeepEqual(ids, []string{"fz-kept"}) {
				continue
			}
			if q == "fz" || len(ids) != 0 {
				t.Fatalf("queue %s holds %v after everything but fz-kept was acked", q, ids)
			}
		}
	})
}

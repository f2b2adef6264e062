package mq

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"stacksync/internal/reclog"
)

func journalPath(t *testing.T) string {
	t.Helper()
	return filepath.Join(t.TempDir(), "broker.journal")
}

func newJournaledBroker(t *testing.T, path string) *Broker {
	t.Helper()
	b, err := RecoverBroker(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func mustRecover(t *testing.T, path string) *Broker {
	t.Helper()
	b, err := RecoverBroker(path)
	if err != nil {
		t.Fatalf("RecoverBroker: %v", err)
	}
	t.Cleanup(func() { _ = b.Close() })
	return b
}

// crashCopy returns a copy of the journal as the file holds it right now:
// what a restart would find had the process been killed at this instant.
func crashCopy(t *testing.T, path string) string {
	t.Helper()
	return writeJournalFile(t, journalBytes(t, path))
}

func journalBytes(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func writeJournalFile(t *testing.T, data []byte) string {
	t.Helper()
	path := journalPath(t)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func mustPublish(t *testing.T, b MQ, exchange, key, id string) {
	t.Helper()
	if err := b.Publish(exchange, key, Message{ID: id, Body: []byte("body of " + id), Persistent: true}); err != nil {
		t.Fatalf("publish %s: %v", id, err)
	}
}

// queueIDs lists the ids of the messages waiting on the queue, in order,
// and leaves them there. A queue that does not exist lists as nil.
func queueIDs(t *testing.T, b *Broker, queue string) []string {
	t.Helper()
	stats, err := b.QueueStats(queue)
	if err != nil {
		return nil
	}
	sub, err := b.Subscribe(queue, stats.Depth+1)
	if err != nil {
		t.Fatal(err)
	}
	ids := []string{}
	for i := 0; i < stats.Depth; i++ {
		d := recvDelivery(t, sub)
		if body := string(d.Body); strings.HasPrefix(body, "body of ") && body != "body of "+d.Message.ID {
			t.Fatalf("message %s holds %q", d.Message.ID, body)
		}
		ids = append(ids, d.Message.ID)
	}
	if err := sub.Cancel(); err != nil {
		t.Fatal(err)
	}
	return ids
}

// ackN consumes and acks the first n messages of the queue.
func ackN(t *testing.T, b *Broker, queue string, n int) {
	t.Helper()
	sub, err := b.Subscribe(queue, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		d := recvDelivery(t, sub)
		if err := d.Ack(); err != nil {
			t.Fatal(err)
		}
	}
	if err := sub.Cancel(); err != nil {
		t.Fatal(err)
	}
}

func wantIDs(t *testing.T, b *Broker, queue string, want ...string) {
	t.Helper()
	if want == nil {
		want = []string{}
	}
	if got := queueIDs(t, b, queue); !reflect.DeepEqual(got, want) {
		t.Fatalf("queue %s holds %v, want %v", queue, got, want)
	}
}

func TestJournalRecoversPendingPersistentMessages(t *testing.T) {
	path := journalPath(t)
	b := newJournaledBroker(t, path)
	mustDeclare(t, b, "q")
	mustPublish(t, b, "", "q", "a")
	mustPublish(t, b, "", "q", "b")
	mustPublish(t, b, "", "q", "c")
	ackN(t, b, "q", 1)
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	wantIDs(t, mustRecover(t, path), "q", "b", "c")
}

func TestJournalDoesNotPersistTransientMessages(t *testing.T) {
	path := journalPath(t)
	b := newJournaledBroker(t, path)
	mustDeclare(t, b, "q")
	if err := b.Publish("", "q", Message{Body: []byte("transient")}); err != nil {
		t.Fatal(err)
	}
	_ = b.Close()
	wantIDs(t, mustRecover(t, path), "q")
}

func TestJournalKeepsHeadersAndEmptyBody(t *testing.T) {
	path := journalPath(t)
	b := newJournaledBroker(t, path)
	mustDeclare(t, b, "q")
	headers := map[string]string{"codec": "bin", "reply-to": "r.1", "": "empty key"}
	if err := b.Publish("", "q", Message{ID: "h", Headers: headers, Persistent: true}); err != nil {
		t.Fatal(err)
	}
	_ = b.Close()
	sub, err := mustRecover(t, path).Subscribe("q", 1)
	if err != nil {
		t.Fatal(err)
	}
	d := recvDelivery(t, sub)
	if !reflect.DeepEqual(d.Headers, headers) || len(d.Body) != 0 || !d.Persistent || d.ID != "h" {
		t.Fatalf("recovered %+v", d.Message)
	}
}

func TestJournalRecoversTopology(t *testing.T) {
	path := journalPath(t)
	b := newJournaledBroker(t, path)
	mustDeclare(t, b, "q1", "q2", "q3")
	if err := b.DeclareExchange("ws", Fanout); err != nil {
		t.Fatal(err)
	}
	if err := b.DeclareExchange("rpc", Direct); err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{"q1", "q2", "q3"} {
		if err := b.BindQueue(q, "ws", ""); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.BindQueue("q1", "rpc", "k"); err != nil {
		t.Fatal(err)
	}
	if err := b.DeleteQueue("q2"); err != nil {
		t.Fatal(err)
	}
	if err := b.UnbindQueue("q3", "ws", ""); err != nil {
		t.Fatal(err)
	}
	_ = b.Close()

	// Twice: the second recovery reads what the first one's compaction wrote.
	for pass := 0; pass < 2; pass++ {
		b2, err := RecoverBroker(path)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := b2.QueueStats("q2"); err == nil {
			t.Fatal("deleted queue q2 resurrected by recovery")
		}
		mustPublish(t, b2, "ws", "", "fan")
		mustPublish(t, b2, "rpc", "k", "direct")
		wantIDs(t, b2, "q1", "fan", "direct")
		wantIDs(t, b2, "q3")
		ackN(t, b2, "q1", 2)
		if err := b2.DeclareExchange("ws", Direct); err != ErrExchangeExists {
			t.Fatalf("exchange kind not recovered: %v", err)
		}
		_ = b2.Close()
	}
}

func TestRecoverBrokerMissingJournalStartsEmpty(t *testing.T) {
	b := mustRecover(t, filepath.Join(t.TempDir(), "never-created.journal"))
	if queues := b.Queues(); len(queues) != 0 {
		t.Fatalf("fresh recovery has queues: %v", queues)
	}
}

func TestRecoveredBrokerKeepsJournalling(t *testing.T) {
	path := journalPath(t)
	b := newJournaledBroker(t, path)
	mustDeclare(t, b, "q")
	_ = b.Close()

	b2, err := RecoverBroker(path)
	if err != nil {
		t.Fatal(err)
	}
	mustPublish(t, b2, "", "q", "second-gen")
	_ = b2.Close()
	wantIDs(t, mustRecover(t, path), "q", "second-gen")
}

// fanoutConsumers binds n queues, q0 to q<n-1>, to the fanout exchange fan
// and subscribes one consumer of prefetch 1 to each.
func fanoutConsumers(t *testing.T, b *Broker, n int) []Subscription {
	t.Helper()
	if err := b.DeclareExchange("fan", Fanout); err != nil {
		t.Fatal(err)
	}
	subs := make([]Subscription, n)
	for i := range subs {
		name := fmt.Sprintf("q%d", i)
		mustDeclare(t, b, name)
		if err := b.BindQueue(name, "fan", ""); err != nil {
			t.Fatal(err)
		}
		var err error
		if subs[i], err = b.Subscribe(name, 1); err != nil {
			t.Fatal(err)
		}
	}
	return subs
}

// TestAckRecordsWrittenWhenIdle: each of the 24 acks of a fan-out is in
// the file when its settle returns, so a crash right after the last Ack
// returns recovers nothing pending; and the message and its acks cost no
// write(2), since every record is stored through the journal's mapping.
// The acks are held until Publish returns, so no publish follows them.
func TestAckRecordsWrittenWhenIdle(t *testing.T) {
	path := journalPath(t)
	b := newJournaledBroker(t, path)
	t.Cleanup(func() { _ = b.Close() })
	subs := fanoutConsumers(t, b, 24)
	published := make(chan struct{})
	acked := make(chan error, len(subs))
	for _, sub := range subs {
		go func() {
			d := <-sub.Deliveries()
			<-published
			acked <- d.Ack()
		}()
	}
	writes := processWrites()
	mustPublish(t, b, "fan", "", "m")
	close(published)
	for range subs {
		if err := <-acked; err != nil {
			t.Fatal(err)
		}
	}
	writes = processWrites() - writes
	rb := mustRecover(t, crashCopy(t, path))
	for i := range subs {
		wantIDs(t, rb, fmt.Sprintf("q%d", i))
	}
	if writes != 0 {
		t.Fatalf("a message fanned out to %d queues and acked by all took %d writes, want none", len(subs), writes)
	}
}

// TestAckIsInFileWhileDeliveriesOutstanding: an ack is in the file when
// its settle returns, though another delivery of the message is still
// outstanding and nothing is published after it.
func TestAckIsInFileWhileDeliveriesOutstanding(t *testing.T) {
	path := journalPath(t)
	b := newJournaledBroker(t, path)
	t.Cleanup(func() { _ = b.Close() })
	subs := fanoutConsumers(t, b, 24)
	mustPublish(t, b, "fan", "", "m")
	held := recvDelivery(t, subs[0])
	for i, sub := range subs[1:] {
		d := recvDelivery(t, sub)
		if err := d.Ack(); err != nil {
			t.Fatal(err)
		}
		killed := mustRecover(t, crashCopy(t, path))
		for j := range subs {
			if j == 0 || j > i+1 {
				wantIDs(t, killed, fmt.Sprintf("q%d", j), "m")
			} else {
				wantIDs(t, killed, fmt.Sprintf("q%d", j))
			}
		}
	}
	if err := held.Ack(); err != nil {
		t.Fatal(err)
	}
}

// TestCrashRedeliversOnlyUnackedMessages abandons the broker, never
// closed, right after acks: recovery redelivers exactly the messages not
// acked yet and loses nothing. A Cancel then requeues the last one, and
// what it acks afterwards is in the file too.
func TestCrashRedeliversOnlyUnackedMessages(t *testing.T) {
	path := journalPath(t)
	b := newJournaledBroker(t, path)
	t.Cleanup(func() { _ = b.Close() })
	mustDeclare(t, b, "q", "other")
	sub, err := b.Subscribe("q", 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"a", "b", "c", "d"} {
		mustPublish(t, b, "", "q", id)
	}
	ds := make([]Delivery, 4)
	for i := range ds {
		ds[i] = recvDelivery(t, sub)
	}
	ack := func(d *Delivery) {
		t.Helper()
		if err := d.Ack(); err != nil {
			t.Fatal(err)
		}
	}
	ack(&ds[0])
	mustPublish(t, b, "", "other", "e")
	ack(&ds[1])
	ack(&ds[2]) // d is still out
	killed := mustRecover(t, crashCopy(t, path))
	wantIDs(t, killed, "q", "d")
	wantIDs(t, killed, "other", "e")

	if err := sub.Cancel(); err != nil {
		t.Fatal(err)
	}
	wantIDs(t, mustRecover(t, crashCopy(t, path)), "q", "d")
	ackN(t, b, "q", 1)
	wantIDs(t, mustRecover(t, crashCopy(t, path)), "q")
}

// TestPublishReturnsAfterRecordIsInFile kills the broker — it is simply
// abandoned, never closed — the moment concurrent publishes have returned:
// every one of them must already be in the file.
func TestPublishReturnsAfterRecordIsInFile(t *testing.T) {
	path := journalPath(t)
	b := newJournaledBroker(t, path)
	mustDeclare(t, b, "q")
	const producers, each = 4, 25
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				id := fmt.Sprintf("p%d-%d", p, i)
				if err := b.Publish("", "q", Message{ID: id, Body: []byte("body of " + id), Persistent: true}); err != nil {
					t.Errorf("publish %s: %v", id, err)
				}
			}
		}(p)
	}
	wg.Wait()
	killed := crashCopy(t, path)
	t.Cleanup(func() { _ = b.Close() })
	if got := len(queueIDs(t, mustRecover(t, killed), "q")); got != producers*each {
		t.Fatalf("%d of %d returned publishes were in the file", got, producers*each)
	}
}

// failingTail is a journal file that cannot grow, as a full disk leaves it.
type failingTail struct{}

func (failingTail) Map(int64, int) ([]byte, error) { return nil, errors.New("injected: no space left") }
func (failingTail) Sync() error                    { return nil }
func (failingTail) Close(int64) error              { return nil }

// TestFailedJournalRefusesLaterPublishes pins what a Publish error means.
// The publish that meets the journal's failure (a grow that fails) is
// refused before it reaches a queue, and so is every later persistent
// publish; transient ones are not affected.
func TestFailedJournalRefusesLaterPublishes(t *testing.T) {
	b := NewBroker()
	t.Cleanup(func() { _ = b.Close() })
	mustDeclare(t, b, "q")
	b.journal = &Journal{w: reclog.NewWriter(failingTail{}, int64(len(journalMagic)), false, nil)}
	for _, id := range []string{"first", "second"} {
		if err := b.Publish("", "q", Message{ID: id, Persistent: true}); err == nil {
			t.Fatalf("publish %s returned nil though its record is not in the file", id)
		}
	}
	if err := b.Publish("", "q", Message{ID: "transient"}); err != nil {
		t.Fatalf("transient publish: %v", err)
	}
	wantIDs(t, b, "q", "transient")
	if err := b.DeclareQueue("q2"); err == nil {
		t.Fatal("declaration returned nil though its record is not in the file")
	}
}

// TestAckAfterRestartDoesNotCancelOlderMessage is the regression test for
// acks keyed by message id: ids restarted at m1 after recovery, so acking
// the new m1 cancelled the old, still unacked m1 on the next replay.
func TestAckAfterRestartDoesNotCancelOlderMessage(t *testing.T) {
	path := journalPath(t)
	b := newJournaledBroker(t, path)
	mustDeclare(t, b, "q")
	if err := b.Publish("", "q", Message{Body: []byte("A"), Persistent: true}); err != nil {
		t.Fatal(err)
	}
	idA := queueIDs(t, b, "q")[0]
	_ = b.Close()

	b2, err := RecoverBroker(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := b2.Publish("", "q", Message{Body: []byte("B"), Persistent: true}); err != nil {
		t.Fatal(err)
	}
	ids := queueIDs(t, b2, "q")
	if len(ids) != 2 || ids[0] != idA || ids[1] == idA {
		t.Fatalf("after restart the queue holds %v; A is %s and B needs an id of its own", ids, idA)
	}
	// Ack B only: consume both, requeue A.
	sub, _ := b2.Subscribe("q", 2)
	dA, dB := recvDelivery(t, sub), recvDelivery(t, sub)
	if err := dB.Ack(); err != nil {
		t.Fatal(err)
	}
	if err := dA.Nack(true); err != nil {
		t.Fatal(err)
	}
	_ = b2.Close()

	b3 := mustRecover(t, path)
	wantIDs(t, b3, "q", idA)
	// The counter survives a recovery with nothing live, too.
	ackN(t, b3, "q", 1)
	_ = b3.Close()
	b4 := mustRecover(t, path)
	if err := b4.Publish("", "q", Message{Body: []byte("C"), Persistent: true}); err != nil {
		t.Fatal(err)
	}
	if idC := queueIDs(t, b4, "q")[0]; idC == idA || idC == ids[1] {
		t.Fatalf("id %s reused after restart", idC)
	}
}

// TestFanoutIsJournalledOnce: a message routed to N queues is one record,
// and recovery places it on exactly the queues that have not acked it.
func TestFanoutIsJournalledOnce(t *testing.T) {
	const queues, acked = 8, 3
	path := journalPath(t)
	b := newJournaledBroker(t, path)
	if err := b.DeclareExchange("fan", Fanout); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < queues; i++ {
		name := fmt.Sprintf("q%d", i)
		mustDeclare(t, b, name)
		if err := b.BindQueue(name, "fan", ""); err != nil {
			t.Fatal(err)
		}
	}
	mustPublish(t, b, "fan", "", "first")
	mustPublish(t, b, "fan", "", "second")
	for i := 0; i < acked; i++ {
		ackN(t, b, fmt.Sprintf("q%d", i), 1)
	}
	_ = b.Close()
	if n := bytes.Count(journalBytes(t, path), []byte("body of first")); n != 1 {
		t.Fatalf("message fanned out to %d queues is in the journal %d times", queues, n)
	}
	for pass := 0; pass < 2; pass++ { // the second pass reads the compacted file
		b2, err := RecoverBroker(path)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < queues; i++ {
			if i < acked {
				wantIDs(t, b2, fmt.Sprintf("q%d", i), "second")
			} else {
				wantIDs(t, b2, fmt.Sprintf("q%d", i), "first", "second")
			}
		}
		_ = b2.Close()
	}
}

func TestDeleteQueueThenRecover(t *testing.T) {
	path := journalPath(t)
	b := newJournaledBroker(t, path)
	if err := b.DeclareExchange("fan", Fanout); err != nil {
		t.Fatal(err)
	}
	mustDeclare(t, b, "keep", "gone")
	for _, q := range []string{"keep", "gone"} {
		if err := b.BindQueue(q, "fan", ""); err != nil {
			t.Fatal(err)
		}
	}
	mustPublish(t, b, "fan", "", "before")
	if err := b.DeleteQueue("gone"); err != nil {
		t.Fatal(err)
	}
	// The name comes back as a new queue: it must not inherit the backlog,
	// nor the binding, of the one deleted.
	mustDeclare(t, b, "gone")
	mustPublish(t, b, "", "gone", "after")
	mustPublish(t, b, "fan", "", "fan-after")
	_ = b.Close()
	for pass := 0; pass < 2; pass++ {
		b2, err := RecoverBroker(path)
		if err != nil {
			t.Fatal(err)
		}
		wantIDs(t, b2, "keep", "before", "fan-after")
		wantIDs(t, b2, "gone", "after")
		_ = b2.Close()
	}
}

// TestTornTailAtEveryOffset cuts the journal at every byte of its last
// record: recovery keeps what precedes it, and — the part the JSON-lines
// journal got wrong — what is published afterwards survives the recovery
// after that, because the torn bytes are gone rather than appended to.
func TestTornTailAtEveryOffset(t *testing.T) {
	path := journalPath(t)
	b := newJournaledBroker(t, path)
	mustDeclare(t, b, "q")
	mustPublish(t, b, "", "q", "keep")
	intact := int(b.journal.w.End())
	mustPublish(t, b, "", "q", "torn")
	_ = b.Close()
	full := journalBytes(t, path)
	if len(full) <= intact {
		t.Fatal("second publish added nothing to the journal")
	}
	for cut := intact; cut < len(full); cut++ {
		p := writeJournalFile(t, full[:cut])
		b2, err := RecoverBroker(p)
		if err != nil {
			t.Fatalf("cut at %d: %v", cut, err)
		}
		wantIDs(t, b2, "q", "keep")
		mustPublish(t, b2, "", "q", "post-crash")
		mustPublish(t, b2, "", "q", "post-crash-2")
		survivor := crashCopy(t, p)
		_ = b2.Close()
		wantIDs(t, mustRecover(t, survivor), "q", "keep", "post-crash", "post-crash-2")
	}
	// A flipped bit in the last record is a torn tail as well.
	full[len(full)-6] ^= 0x40
	wantIDs(t, mustRecover(t, writeJournalFile(t, full)), "q", "keep")
	// And so is a header cut short by a crash during creation.
	for cut := 0; cut < len(journalMagic); cut++ {
		b3 := mustRecover(t, writeJournalFile(t, full[:cut]))
		mustDeclare(t, b3, "q")
	}
}

func TestRecoverRefusesOtherFormats(t *testing.T) {
	old := `{"op":"declq","queue":"q"}` + "\n" + `{"op":"pub","queue":"q","msg":{"ID":"m1","Body":"eA==","Persistent":true}}` + "\n"
	path := writeJournalFile(t, []byte(old))
	if _, err := RecoverBroker(path); err == nil || !strings.Contains(err.Error(), "JSON-lines") {
		t.Fatalf("JSON-lines journal: got %v, want a refusal that names the format", err)
	}
	if string(journalBytes(t, path)) != old {
		t.Fatal("refused journal was modified")
	}
	if _, _, err := createJournal(path); err == nil {
		t.Fatal("createJournal accepted a non-empty file")
	}
}

// TestRecoverRefusesTaggedCodecJournal: a journal whose header is the
// previous magic, SSMQJNL2, holds envelopes in the tagged codec that this
// build cannot decode, so recovery refuses it whole rather than replaying
// messages no consumer could read.
func TestRecoverRefusesTaggedCodecJournal(t *testing.T) {
	path := journalPath(t)
	b := newJournaledBroker(t, path)
	mustDeclare(t, b, "q")
	mustPublish(t, b, "", "q", "m1")
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	old := append([]byte("SSMQJNL2"), journalBytes(t, path)[len(journalMagic):]...)
	path = writeJournalFile(t, old)
	if b2, err := RecoverBroker(path); err == nil {
		_ = b2.Close()
		t.Fatal("SSMQJNL2 journal replayed")
	} else if !strings.Contains(err.Error(), "SSMQJNL2") {
		t.Fatalf("refusal %q does not name the old format", err)
	}
	if !bytes.Equal(journalBytes(t, path), old) {
		t.Fatal("refused journal was modified")
	}
}

// TestRecoveryCompactsJournal: file size follows live state, not history.
func TestRecoveryCompactsJournal(t *testing.T) {
	path := journalPath(t)
	b := newJournaledBroker(t, path)
	mustDeclare(t, b, "q", "idle")
	if err := b.DeclareExchange("x", Direct); err != nil {
		t.Fatal(err)
	}
	if err := b.BindQueue("q", "x", "k"); err != nil {
		t.Fatal(err)
	}
	declarations := b.journal.w.End()
	sub, err := b.Subscribe("q", 16)
	if err != nil {
		t.Fatal(err)
	}
	const n = 10000
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < n; i++ {
			d := <-sub.Deliveries()
			_ = d.Ack()
		}
	}()
	body := make([]byte, 256)
	for i := 0; i < n; i++ {
		if err := b.Publish("x", "k", Message{Body: body, Persistent: true}); err != nil {
			t.Fatal(err)
		}
	}
	<-done
	_ = b.Close()
	before, _ := os.Stat(path)
	if before.Size() < n*int64(len(body)) {
		t.Fatalf("journal of %d messages is only %d bytes", n, before.Size())
	}

	b2 := mustRecover(t, path)
	wantIDs(t, b2, "q")
	// Declarations plus the one counter record.
	if after := b2.journal.w.End(); after > declarations+16 {
		t.Fatalf("compacted journal is %d bytes; the declarations alone are %d", after, declarations)
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("compaction left its temp file behind: %v", err)
	}
}

// TestCrashDuringCompactionKeepsOldJournal: a crash after the temp file is
// written and before the rename leaves the journal itself untouched, with a
// stale temp file beside it. The next recovery must read the journal, not
// the temp file, and replace the latter.
func TestCrashDuringCompactionKeepsOldJournal(t *testing.T) {
	path := journalPath(t)
	b := newJournaledBroker(t, path)
	mustDeclare(t, b, "q")
	mustPublish(t, b, "", "q", "live")
	_ = b.Close()

	// The stale temp file is a well-formed journal of some other state, the
	// worst case: nothing about it says it was never renamed.
	other := newJournaledBroker(t, path+".tmp")
	mustDeclare(t, other, "q", "stale")
	mustPublish(t, other, "", "stale", "stale")
	_ = other.Close()

	b2 := mustRecover(t, path)
	wantIDs(t, b2, "q", "live")
	if got := b2.Queues(); len(got) != 1 {
		t.Fatalf("recovered queues %v; the stale temp file leaked in", got)
	}
	mustPublish(t, b2, "", "q", "next")
	_ = b2.Close()
	wantIDs(t, mustRecover(t, path), "q", "live", "next")
}

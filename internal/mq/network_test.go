package mq

import (
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"stacksync/internal/obs"
	"stacksync/internal/wire"
)

// newNetworkPair starts a broker + server and returns a connected client.
func newNetworkPair(t *testing.T) (*Broker, *Server, *Client) {
	t.Helper()
	b := NewBroker()
	srv, err := NewServer(b, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cli, err := Dial(srv.Addr())
	if err != nil {
		srv.Close()
		t.Fatal(err)
	}
	t.Cleanup(func() {
		_ = cli.Close()
		_ = srv.Close()
		_ = b.Close()
	})
	return b, srv, cli
}

func TestNetworkDeclarePublishConsume(t *testing.T) {
	_, _, cli := newNetworkPair(t)
	if err := cli.DeclareQueue("q"); err != nil {
		t.Fatal(err)
	}
	sub, err := cli.Subscribe("q", 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := cli.Publish("", "q", Message{Body: []byte("over the wire")}); err != nil {
		t.Fatal(err)
	}
	d := recvDelivery(t, sub)
	if string(d.Body) != "over the wire" {
		t.Fatalf("got %q", d.Body)
	}
	if err := d.Ack(); err != nil {
		t.Fatal(err)
	}
	stats, err := cli.QueueStats("q")
	if err != nil {
		t.Fatal(err)
	}
	if stats.Acked != 1 {
		t.Fatalf("remote stats: %+v", stats)
	}
}

func TestNetworkErrorsMapToSentinels(t *testing.T) {
	_, _, cli := newNetworkPair(t)
	if err := cli.Publish("", "ghost", Message{}); !errors.Is(err, ErrQueueNotFound) {
		t.Fatalf("want ErrQueueNotFound across the wire, got %v", err)
	}
	if _, err := cli.QueueStats("ghost"); !errors.Is(err, ErrQueueNotFound) {
		t.Fatalf("stats: want ErrQueueNotFound, got %v", err)
	}
	if err := cli.DeclareExchange("ex", Direct); err != nil {
		t.Fatal(err)
	}
	if err := cli.DeclareExchange("ex", Fanout); !errors.Is(err, ErrExchangeExists) {
		t.Fatalf("want ErrExchangeExists, got %v", err)
	}
}

func TestNetworkFanoutAcrossClients(t *testing.T) {
	_, srv, cli1 := newNetworkPair(t)
	cli2, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli2.Close()

	if err := cli1.DeclareExchange("ws", Fanout); err != nil {
		t.Fatal(err)
	}
	for i, cli := range []*Client{cli1, cli2} {
		q := []string{"dev1", "dev2"}[i]
		if err := cli.DeclareQueue(q); err != nil {
			t.Fatal(err)
		}
		if err := cli.BindQueue(q, "ws", ""); err != nil {
			t.Fatal(err)
		}
	}
	sub1, _ := cli1.Subscribe("dev1", 1)
	sub2, _ := cli2.Subscribe("dev2", 1)
	if err := cli1.Publish("ws", "", Message{Body: []byte("commit notification")}); err != nil {
		t.Fatal(err)
	}
	for _, sub := range []Subscription{sub1, sub2} {
		d := recvDelivery(t, sub)
		if string(d.Body) != "commit notification" {
			t.Fatalf("got %q", d.Body)
		}
		_ = d.Ack()
	}
}

// TestNetworkClientDisconnectRequeuesUnacked: when a connection dies, every
// delivery it did not settle comes back for a healthy consumer — one the
// client received, and ones still queued on the server, not yet written.
func TestNetworkClientDisconnectRequeuesUnacked(t *testing.T) {
	testDisconnectRequeuesQueued(t)
	_, srv, cli1 := newNetworkPair(t)
	if err := cli1.DeclareQueue("q"); err != nil {
		t.Fatal(err)
	}
	cli2, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	sub2, err := cli2.Subscribe("q", 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := cli1.Publish("", "q", Message{Body: []byte("survive crash")}); err != nil {
		t.Fatal(err)
	}
	// cli2 receives but never acks, then its connection dies.
	recvDelivery(t, sub2)
	if err := cli2.Close(); err != nil {
		t.Fatal(err)
	}
	// The message must come back for a healthy consumer.
	sub1, err := cli1.Subscribe("q", 1)
	if err != nil {
		t.Fatal(err)
	}
	d := recvDelivery(t, sub1)
	if string(d.Body) != "survive crash" || d.Redelivered != 1 {
		t.Fatalf("redelivery after disconnect: body=%q redelivered=%d", d.Body, d.Redelivered)
	}
	_ = d.Ack()
}

// testDisconnectRequeuesQueued subscribes over a raw connection that never
// reads, so deliveries larger than the socket buffers stay queued on the
// server, then drops the connection: all of them must be redelivered. Once
// Server.Close returns, no connection goroutine — reader or writer — is
// left.
func testDisconnectRequeuesQueued(t *testing.T) {
	const msgs = 64
	idle := connGoroutines()
	b := NewBroker()
	defer b.Close()
	srv, err := NewServer(b, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	mustDeclare(t, b, "q")
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if err := wire.NewWriter(conn).Write(&wire.Frame{Op: wire.OpSubscribe, Seq: 1, Queue: "q", ConsumerID: "c1", Prefetch: msgs}); err != nil {
		t.Fatal(err)
	}
	body := make([]byte, 512<<10) // 64 × 512 KB is far past loopback's socket buffers
	for i := 0; i < msgs; i++ {
		if err := b.Publish("", "q", Message{ID: fmt.Sprint("m", i), Body: body}); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, func() bool { st, _ := b.QueueStats("q"); return st.Unacked == msgs })
	if written := srv.frames.Load(); written >= msgs {
		t.Fatalf("server wrote %d frames to a reader that never reads", written)
	}
	_ = conn.Close()

	cli, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	sub, err := cli.Subscribe("q", msgs)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < msgs; i++ {
		d := recvDelivery(t, sub)
		if d.ID != fmt.Sprint("m", i) || d.Redelivered != 1 || len(d.Body) != len(body) {
			t.Fatalf("redelivery %d: %s redelivered %d, %d B", i, d.ID, d.Redelivered, len(d.Body))
		}
		_ = d.Ack()
	}
	if n := connGoroutines(); n <= idle {
		t.Fatalf("%d connection goroutines while a client is connected, %d before", n, idle)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if n := connGoroutines(); n != idle {
		t.Fatalf("%d connection goroutines after Server.Close, %d before", n, idle)
	}
}

// connGoroutines counts the goroutines running a server connection's read
// loop or writer.
func connGoroutines() int {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	count := 0
	for _, g := range strings.Split(string(buf), "\n\n") {
		for _, line := range strings.Split(g, "\n") {
			// Frames only: a "created by" line names the goroutine's
			// creator, which need not be running.
			if !strings.HasPrefix(line, "created by ") &&
				(strings.Contains(line, "mq.(*serverConn).serve(") || strings.Contains(line, "mq.(*serverConn).writeLoop(")) {
				count++
				break
			}
		}
	}
	return count
}

// waitFor polls cond for up to 5 seconds.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in 5s")
		}
	}
}

// TestNetworkFanoutLeavesInOneWrite: a fan-out to 12 consumers sharing one
// connection (prefetch 1, no acks) leaves the server in one write, so one
// persistent publish costs the process at most that write plus the journal
// record's. The minimum over a few publishes is checked, so a write the Go
// runtime makes on its own does not fail the test.
func TestNetworkFanoutLeavesInOneWrite(t *testing.T) {
	if _, err := os.Stat("/proc/self/io"); err != nil {
		t.Skip("counts system calls in /proc/self/io, which this platform lacks")
	}
	const consumers = 12
	b, err := RecoverBroker(filepath.Join(t.TempDir(), "broker.journal"))
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	srv, err := NewServer(b, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if err := b.DeclareExchange("fan", Fanout); err != nil {
		t.Fatal(err)
	}
	subs := make([]Subscription, consumers)
	for i := range subs {
		name := fmt.Sprint("q", i)
		mustDeclare(t, b, name)
		if err := b.BindQueue(name, "fan", ""); err != nil {
			t.Fatal(err)
		}
		if subs[i], err = cli.Subscribe(name, 1); err != nil {
			t.Fatal(err)
		}
	}
	fewest := int64(-1)
	for attempt := 0; attempt < 5; attempt++ {
		before := obs.ProcessIO("syscw")
		if err := b.Publish("fan", "", Message{Body: []byte("commit notification"), Persistent: true}); err != nil {
			t.Fatal(err)
		}
		got := make([]Delivery, consumers)
		for i, sub := range subs {
			got[i] = recvDelivery(t, sub)
		}
		if w := obs.ProcessIO("syscw") - before; fewest < 0 || w < fewest {
			fewest = w
		}
		for i := range got {
			_ = got[i].Ack()
		}
		if err := cli.Ping(); err != nil { // the server has settled every ack
			t.Fatal(err)
		}
	}
	if fewest > 2 {
		t.Fatalf("a fan-out to %d consumers on one connection cost %d write calls, want at most 2 (one delivery write, one journal write)", consumers, fewest)
	}
}

func TestNetworkCancelStopsDeliveries(t *testing.T) {
	_, _, cli := newNetworkPair(t)
	if err := cli.DeclareQueue("q"); err != nil {
		t.Fatal(err)
	}
	sub, err := cli.Subscribe("q", 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := sub.Cancel(); err != nil {
		t.Fatal(err)
	}
	if err := cli.Publish("", "q", Message{Body: []byte("after cancel")}); err != nil {
		t.Fatal(err)
	}
	if _, ok := <-sub.Deliveries(); ok {
		t.Fatal("delivery after cancel")
	}
	stats, err := cli.QueueStats("q")
	if err != nil {
		t.Fatal(err)
	}
	if stats.Depth != 1 {
		t.Fatalf("message should stay queued, depth %d", stats.Depth)
	}
}

// TestNetworkAckIsOneWay speaks raw frames to the server: an OpAck or OpNack
// gets no reply, so the next frame after one is the Pong to a following
// Ping, by which time the settle is done. A settle for a tag the connection
// does not hold is dropped without harming the connection. An OpDeliver
// names its consumer but not its queue.
func TestNetworkAckIsOneWay(t *testing.T) {
	b, srv, _ := newNetworkPair(t)
	mustDeclare(t, b, "q")
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(5 * time.Second))
	w, r := wire.NewWriter(conn), wire.NewReader(conn)
	send := func(f *wire.Frame) {
		t.Helper()
		if err := w.Write(f); err != nil {
			t.Fatal(err)
		}
	}
	next := func(op wire.Op) *wire.Frame {
		t.Helper()
		f, err := r.Read()
		if err != nil {
			t.Fatal(err)
		}
		if f.Op != op {
			t.Fatalf("got %v frame (seq %d, err %q), want %v", f.Op, f.Seq, f.Err, op)
		}
		return f.Clone()
	}
	var seq uint64
	barrier := func() {
		t.Helper()
		seq++
		send(&wire.Frame{Op: wire.OpPing, Seq: seq})
		if pong := next(wire.OpPong); pong.Seq != seq {
			t.Fatalf("pong seq %d, want %d", pong.Seq, seq)
		}
	}

	send(&wire.Frame{Op: wire.OpSubscribe, Seq: 100, Queue: "q", ConsumerID: "c1", Prefetch: 1})
	next(wire.OpOK)
	mustPublish(t, b, "", "q", "acked")
	d := next(wire.OpDeliver)
	if d.ConsumerID != "c1" || d.Queue != "" {
		t.Fatalf("deliver frame names consumer %q and queue %q, want c1 and no queue", d.ConsumerID, d.Queue)
	}
	send(&wire.Frame{Op: wire.OpAck, DeliveryID: d.DeliveryID})
	barrier()
	if st, _ := b.QueueStats("q"); st.Unacked != 0 || st.Acked != 1 {
		t.Fatalf("after ack and ping: %+v, want Unacked 0, Acked 1", st)
	}

	send(&wire.Frame{Op: wire.OpAck, DeliveryID: d.DeliveryID + 1000})
	send(&wire.Frame{Op: wire.OpNack, DeliveryID: d.DeliveryID, Requeue: true})
	barrier()

	mustPublish(t, b, "", "q", "nacked")
	d = next(wire.OpDeliver)
	send(&wire.Frame{Op: wire.OpNack, DeliveryID: d.DeliveryID, Requeue: true})
	again := next(wire.OpDeliver)
	if again.MessageID != "nacked" || again.Redelivery != 1 {
		t.Fatalf("after Nack(true): %s redelivered %d, want nacked once", again.MessageID, again.Redelivery)
	}
	send(&wire.Frame{Op: wire.OpAck, DeliveryID: again.DeliveryID})
	barrier()
	if st, _ := b.QueueStats("q"); st.Unacked != 0 || st.Depth != 0 || st.Acked != 2 {
		t.Fatalf("at the end: %+v", st)
	}
}

// TestNetworkDeliveryQueueFromSubscription: OpDeliver frames carry no queue
// name, so the client stamps each Delivery with the queue its consumer
// subscribed to — per consumer on a shared connection, and anew after a
// Cancel and re-subscribe.
func TestNetworkDeliveryQueueFromSubscription(t *testing.T) {
	_, _, cli := newNetworkPair(t)
	mustDeclare(t, cli, "q1", "q2")
	expect := func(sub Subscription, queue string) {
		t.Helper()
		if err := cli.Publish("", queue, Message{ID: "to-" + queue}); err != nil {
			t.Fatal(err)
		}
		d := recvDelivery(t, sub)
		if d.Queue != queue || d.ID != "to-"+queue {
			t.Fatalf("delivery %q reports queue %q, want %q", d.ID, d.Queue, queue)
		}
		if err := d.Ack(); err != nil {
			t.Fatal(err)
		}
	}
	sub1, err := cli.Subscribe("q1", 1)
	if err != nil {
		t.Fatal(err)
	}
	sub2, err := cli.Subscribe("q2", 1)
	if err != nil {
		t.Fatal(err)
	}
	expect(sub1, "q1")
	expect(sub2, "q2")
	if err := sub1.Cancel(); err != nil {
		t.Fatal(err)
	}
	again, err := cli.Subscribe("q2", 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := sub2.Cancel(); err != nil {
		t.Fatal(err)
	}
	expect(again, "q2")
	sub1, err = cli.Subscribe("q1", 1)
	if err != nil {
		t.Fatal(err)
	}
	expect(sub1, "q1")
}

func TestNetworkPing(t *testing.T) {
	_, _, cli := newNetworkPair(t)
	if err := cli.Ping(); err != nil {
		t.Fatal(err)
	}
}

func TestNetworkServerCloseFailsClients(t *testing.T) {
	_, srv, cli := newNetworkPair(t)
	if err := cli.DeclareQueue("q"); err != nil {
		t.Fatal(err)
	}
	sub, err := cli.Subscribe("q", 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case _, ok := <-sub.Deliveries():
		if ok {
			t.Fatal("unexpected delivery on dead server")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("delivery channel not closed after server shutdown")
	}
	if err := cli.DeclareQueue("r"); err == nil {
		t.Fatal("request on dead connection succeeded")
	}
}

func TestNetworkHighThroughputManyConsumers(t *testing.T) {
	_, srv, producer := newNetworkPair(t)
	if err := producer.DeclareQueue("work"); err != nil {
		t.Fatal(err)
	}
	const consumers = 3
	const total = 300
	received := make(chan struct{}, total)
	for i := 0; i < consumers; i++ {
		cli, err := Dial(srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer cli.Close()
		sub, err := cli.Subscribe("work", 4)
		if err != nil {
			t.Fatal(err)
		}
		go func() {
			for d := range sub.Deliveries() {
				_ = d.Ack()
				received <- struct{}{}
			}
		}()
	}
	for i := 0; i < total; i++ {
		if err := producer.Publish("", "work", Message{Body: []byte{byte(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < total; i++ {
		select {
		case <-received:
		case <-time.After(10 * time.Second):
			t.Fatalf("stalled after %d/%d", i, total)
		}
	}
}

// TestNetworkTraceHeadersSurvive: the obs trace headers the messaging
// middleware injects must cross the TCP frame codec intact, so a trace that
// starts on one side of a real network hop continues on the other.
func TestNetworkTraceHeadersSurvive(t *testing.T) {
	_, _, cli := newNetworkPair(t)
	if err := cli.DeclareQueue("q"); err != nil {
		t.Fatal(err)
	}
	sub, err := cli.Subscribe("q", 1)
	if err != nil {
		t.Fatal(err)
	}
	headers := make(map[string]string)
	obs.TraceContext{TraceID: "trace-42", SpanID: "span-7"}.Inject(headers)
	headers[obs.HeaderPublishNanos] = "123456789"
	if err := cli.Publish("", "q", Message{Body: []byte("x"), Headers: headers}); err != nil {
		t.Fatal(err)
	}
	d := recvDelivery(t, sub)
	tc, ok := obs.ExtractTraceContext(d.Headers)
	if !ok || tc.TraceID != "trace-42" || tc.SpanID != "span-7" {
		t.Fatalf("trace context after round trip = %+v ok=%v", tc, ok)
	}
	if got := d.Headers[obs.HeaderPublishNanos]; got != "123456789" {
		t.Fatalf("publish timestamp header = %q", got)
	}
	if err := d.Ack(); err != nil {
		t.Fatal(err)
	}
}

package mq_test

import (
	"errors"
	"net"
	"strings"
	"testing"
	"time"

	"stacksync/internal/mq"
	"stacksync/internal/omq"
	"stacksync/internal/wire"
)

// blob is a bound object whose reply is as large as asked.
type blob struct{}

func (blob) Bytes(n int) []byte { return make([]byte, n) }

// TestNetworkOversizeReplyFailsOneCall: a reply too large for one frame
// fails its own call with mq.ErrTooLarge, and the connection it would have
// shared keeps serving: the next call on the same mq.Client succeeds. The
// one part of a deliver frame the broker cannot see at publish, the
// consumer id, is bounded at subscribe: a longer id is refused with
// OpError on a connection that keeps serving, and the largest body the
// publish check accepts reaches a consumer whose id is at the bound.
func TestNetworkOversizeReplyFailsOneCall(t *testing.T) {
	inner := mq.NewBroker()
	srv, err := mq.NewServer(inner, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	// The service sits beside the broker, as deploy puts it; the caller
	// dials in.
	server, err := omq.NewBroker(inner)
	if err != nil {
		t.Fatal(err)
	}
	cli, err := mq.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	client, err := omq.NewBroker(cli)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		_ = client.Close()
		_ = cli.Close()
		_ = server.Close()
		_ = srv.Close()
		_ = inner.Close()
	})
	if _, err := server.Bind("blob", blob{}); err != nil {
		t.Fatal(err)
	}
	proxy := client.Lookup("blob", omq.WithTimeout(5*time.Second), omq.WithRetries(1))
	var got []byte
	if err := proxy.Call("Bytes", &got, wire.MaxFrameSize+1); !errors.Is(err, mq.ErrTooLarge) {
		t.Fatalf("oversize reply: err = %v, want mq.ErrTooLarge", err)
	}
	if err := proxy.Call("Bytes", &got, 16); err != nil || len(got) != 16 {
		t.Fatalf("next call on the same client: %d B, err = %v", len(got), err)
	}

	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(10 * time.Second))
	w, r := wire.NewWriter(conn), wire.NewReader(conn)
	roundTrip := func(f *wire.Frame, want wire.Op) *wire.Frame {
		t.Helper()
		if err := w.Write(f); err != nil {
			t.Fatal(err)
		}
		got, err := r.Read()
		if err != nil {
			t.Fatalf("%v: the connection did not survive: %v", f.Op, err)
		}
		if got.Op != want || got.Seq != f.Seq {
			t.Fatalf("%v: got %v seq %d, want %v seq %d", f.Op, got.Op, got.Seq, want, f.Seq)
		}
		return got
	}
	if err := inner.DeclareQueue("big"); err != nil {
		t.Fatal(err)
	}
	refused := roundTrip(&wire.Frame{Op: wire.OpSubscribe, Seq: 1, Queue: "big", ConsumerID: strings.Repeat("c", 129), Prefetch: 1}, wire.OpError)
	if !strings.Contains(refused.Err, "consumer id") {
		t.Fatalf("refusal %q does not name the consumer id", refused.Err)
	}
	roundTrip(&wire.Frame{Op: wire.OpPing, Seq: 2}, wire.OpPong)
	roundTrip(&wire.Frame{Op: wire.OpSubscribe, Seq: 3, Queue: "big", ConsumerID: strings.Repeat("c", 128), Prefetch: 1}, wire.OpOK)
	largest := make([]byte, wire.MaxFrameSize-512) // all the publish check leaves
	if err := inner.Publish("", "big", mq.Message{Body: largest}); err != nil {
		t.Fatalf("a body within the publish bound was refused: %v", err)
	}
	if err := inner.Publish("", "big", mq.Message{Body: append(largest, 0)}); !errors.Is(err, mq.ErrTooLarge) {
		t.Fatalf("a body over the publish bound: err = %v, want mq.ErrTooLarge", err)
	}
	d, err := r.Read()
	if err != nil || d.Op != wire.OpDeliver || len(d.Body) != len(largest) {
		t.Fatalf("largest delivery: %v, err = %v", d.Op, err)
	}
	roundTrip(&wire.Frame{Op: wire.OpPing, Seq: 4}, wire.OpPong)
}

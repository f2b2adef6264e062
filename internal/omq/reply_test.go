package omq

import (
	"errors"
	"strings"
	"testing"
	"time"

	"stacksync/internal/mq"
	"stacksync/internal/wire"
)

// TestUnsendableRefusalIsSentOnce: a sync request whose CorrelationID puts
// it just under the publish bound passes the broker's check, but neither
// its reply nor the error reply that refuses it fits one frame: both echo
// the CorrelationID and add the server's id, and the result or the error
// text. The server tries the refusal once and gives up, so the handler
// returns, the request is acked, and the object serves the next call; the
// caller of the oversize request is left to its timeout.
func TestUnsendableRefusalIsSentOnce(t *testing.T) {
	m := mq.NewBroker()
	defer m.Close()
	server, err := NewBroker(m)
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()
	c := &calc{id: strings.Repeat("x", 256)}
	if _, err := server.Bind("calc", c); err != nil {
		t.Fatal(err)
	}
	const replyTo = "r"
	if err := m.DeclareQueue(replyTo); err != nil {
		t.Fatal(err)
	}
	sub, err := m.Subscribe(replyTo, 8)
	if err != nil {
		t.Fatal(err)
	}
	arg, err := bin.MarshalAppend(nil, struct{}{})
	if err != nil {
		t.Fatal(err)
	}

	// mq refuses a body once it and mq's 512 B frame slack exceed one
	// frame; size the request to the largest body it accepts.
	target := wire.MaxFrameSize - 512
	req := &request{Method: "WhoAmI", Args: [][]byte{arg}, ReplyTo: replyTo}
	var body []byte
	for n := 1; len(body) != target; n += target - len(body) {
		if n < 1 {
			t.Fatalf("cannot size the request to %d B", target)
		}
		req.CorrelationID = string(make([]byte, n))
		if body, err = encodeRequest(req); err != nil {
			t.Fatal(err)
		}
	}
	result, err := bin.MarshalAppend(nil, c.id)
	if err != nil {
		t.Fatal(err)
	}
	for _, resp := range []*response{
		{CorrelationID: req.CorrelationID, Result: result, From: server.id},
		{CorrelationID: req.CorrelationID, Err: "1 B body: " + mq.ErrTooLarge.Error(), From: server.id},
	} {
		data, err := encodeResponse(resp)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Publish("", "scratch", mq.Message{Body: data}); !errors.Is(err, mq.ErrTooLarge) {
			t.Fatalf("precondition: a %d B response publishes with %v, want ErrTooLarge", len(data), err)
		}
	}
	if err := m.Publish("", "calc", mq.Message{Body: body}); err != nil {
		t.Fatalf("request of %d B: %v", len(body), err)
	}
	body, req = nil, nil

	waitFor(t, 5*time.Second, func() bool {
		stats, err := m.QueueStats("calc")
		return err == nil && stats.Enqueued == 1 && stats.Depth == 0 && stats.Unacked == 0
	})
	select {
	case d := <-sub.Deliveries():
		t.Fatalf("oversize request got a %d B reply", len(d.Body))
	case <-time.After(50 * time.Millisecond):
	}

	client, err := NewBroker(m)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	var id string
	if err := client.Lookup("calc", WithTimeout(5*time.Second)).Call("WhoAmI", &id, struct{}{}); err != nil {
		t.Fatalf("next call: %v", err)
	}
	if id != c.id {
		t.Fatalf("next call returned %q", id)
	}
	if n := c.calls.Load(); n != 2 {
		t.Fatalf("handler ran %d times, want 2", n)
	}
}

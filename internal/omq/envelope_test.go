package omq

import (
	"bytes"
	"encoding/gob"
	"encoding/json"
	"errors"
	"fmt"
	"testing"
	"time"

	"stacksync/internal/mq"
)

// legacyRequest and legacyResponse are the pre-binary envelopes, field for
// field and tag for tag, as parent-era peers encoded them in JSON or gob.
type legacyRequest struct {
	Method        string   `json:"method"`
	Args          [][]byte `json:"args,omitempty"`
	Codec         string   `json:"codec,omitempty"`
	CorrelationID string   `json:"correlationId,omitempty"`
	ReplyTo       string   `json:"replyTo,omitempty"`
	RequestID     string   `json:"requestId,omitempty"`
	OneWay        bool     `json:"oneWay,omitempty"`
}

type legacyResponse struct {
	CorrelationID string `json:"correlationId"`
	Result        []byte `json:"result,omitempty"`
	Err           string `json:"err,omitempty"`
	From          string `json:"from,omitempty"`
}

// legacyEncode encodes v as a pre-binary peer speaking enc ("json" or
// "gob") did, and returns the headers it published alongside: JSON went
// bare, gob announced itself in the "codec" header.
func legacyEncode(t *testing.T, enc string, v any) ([]byte, map[string]string) {
	t.Helper()
	switch enc {
	case "json":
		data, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return data, nil
	case "gob":
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(v); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes(), map[string]string{"codec": "gob"}
	}
	t.Fatalf("unknown legacy encoding %q", enc)
	return nil, nil
}

// legacyDecode decodes data as a pre-binary peer speaking enc would.
func legacyDecode(enc string, data []byte, v any) error {
	if enc == "gob" {
		return gob.NewDecoder(bytes.NewReader(data)).Decode(v)
	}
	return json.Unmarshal(data, v)
}

// refuseLegacyClient publishes a request exactly as a pre-binary client
// speaking enc would and asserts the binary server refuses it: the body
// does not decode, the handler never runs, no reply is sent, and the
// message is dropped rather than requeued. One codec means no fallback, so
// an old peer fails loudly instead of being half-understood.
func refuseLegacyClient(t *testing.T, enc string) {
	m := mq.NewBroker()
	defer m.Close()
	server, err := NewBroker(m)
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()
	c := &calc{}
	if _, err := server.Bind("calc", c); err != nil {
		t.Fatal(err)
	}

	replyQueue := "legacy.reply"
	if err := m.DeclareQueue(replyQueue); err != nil {
		t.Fatal(err)
	}
	sub, err := m.Subscribe(replyQueue, 8)
	if err != nil {
		t.Fatal(err)
	}
	args, _ := legacyEncode(t, enc, addArgs{A: 1, B: 2})
	body, headers := legacyEncode(t, enc, legacyRequest{
		Method:        "Add",
		Args:          [][]byte{args},
		Codec:         enc,
		CorrelationID: "legacy-1",
		ReplyTo:       replyQueue,
	})
	if _, err := decodeRequest(body); err == nil {
		t.Fatalf("legacy %s envelope decoded as a binary request", enc)
	}
	if err := m.Publish("", "calc", mq.Message{Headers: headers, Body: body, Persistent: true}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, func() bool {
		stats, err := m.QueueStats("calc")
		return err == nil && stats.Enqueued == 1 && stats.Depth == 0 && stats.Unacked == 0
	})
	select {
	case d := <-sub.Deliveries():
		t.Fatalf("legacy request got a reply: %q", d.Body)
	case <-time.After(50 * time.Millisecond):
	}
	if n := c.calls.Load(); n != 0 {
		t.Fatalf("legacy request executed %d times", n)
	}
	if stats, _ := m.QueueStats("calc"); stats.Redelivered != 0 {
		t.Fatalf("legacy request requeued: %+v", stats)
	}
}

// refuseLegacyServer calls through a binary client into an emulated
// pre-binary server speaking enc. The server cannot read the request: it
// carries no codec header and is not a legacy envelope. And a legacy reply,
// even one addressed to the call, never completes it: the client consumes
// and drops the reply and times out rather than return a misread result.
func refuseLegacyServer(t *testing.T, enc string) {
	m := mq.NewBroker()
	defer m.Close()
	client, err := NewBroker(m)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if err := m.DeclareQueue("calc"); err != nil {
		t.Fatal(err)
	}
	sub, err := m.Subscribe("calc", 8)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		var sum int
		p := client.Lookup("calc", WithTimeout(time.Second), WithRetries(1))
		if err := p.Call("Add", &sum, addArgs{A: 20, B: 22}); err != nil {
			done <- err
			return
		}
		done <- fmt.Errorf("call completed with sum %d", sum)
	}()

	var d mq.Delivery
	select {
	case d = <-sub.Deliveries():
	case <-time.After(5 * time.Second):
		t.Fatal("no request observed")
	}
	if got, ok := d.Headers["codec"]; ok {
		t.Fatalf("binary request stamped codec header %q", got)
	}
	var lreq legacyRequest
	if err := legacyDecode(enc, d.Body, &lreq); err == nil {
		t.Fatalf("legacy %s server decoded a binary request: %+v", enc, lreq)
	}
	_ = d.Ack()

	// Address the reply as a legacy server that understood the call would.
	req, err := decodeRequest(d.Body)
	if err != nil {
		t.Fatal(err)
	}
	result, _ := legacyEncode(t, enc, 42)
	body, headers := legacyEncode(t, enc, legacyResponse{CorrelationID: req.CorrelationID, Result: result})
	if err := m.Publish("", req.ReplyTo, mq.Message{Headers: headers, Body: body}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, func() bool {
		stats, err := m.QueueStats(req.ReplyTo)
		return err == nil && stats.Enqueued == 1 && stats.Depth == 0 && stats.Unacked == 0
	})
	select {
	case err := <-done:
		if !errors.Is(err, ErrTimeout) {
			t.Fatalf("call into legacy %s server: %v, want ErrTimeout", enc, err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("call never returned")
	}
}

// TestLegacyJSONEnvelope feeds a server a request exactly as a pre-binary
// peer would publish it — a JSON envelope with no headers — and asserts it
// is refused.
func TestLegacyJSONEnvelope(t *testing.T) { refuseLegacyClient(t, "json") }

// TestCrossCodecInterop pins the one-codec contract across a mixed fleet,
// named client->server: binary peers interoperate, and every pairing of a
// binary peer with a pre-binary JSON or gob peer is refused on whichever
// side the binary peer sits, with no fallback. Pairings of two legacy peers
// exercise no code of this tree and are not listed.
func TestCrossCodecInterop(t *testing.T) {
	t.Run("bin->bin", func(t *testing.T) {
		m := mq.NewBroker()
		defer m.Close()
		server, err := NewBroker(m)
		if err != nil {
			t.Fatal(err)
		}
		defer server.Close()
		client, err := NewBroker(m)
		if err != nil {
			t.Fatal(err)
		}
		defer client.Close()
		if _, err := server.Bind("calc", &calc{}); err != nil {
			t.Fatal(err)
		}
		var sum int
		if err := client.Lookup("calc", WithTimeout(5*time.Second)).Call("Add", &sum, addArgs{A: 20, B: 22}); err != nil {
			t.Fatalf("call: %v", err)
		}
		if sum != 42 {
			t.Fatalf("sum = %d", sum)
		}
	})
	for _, enc := range []string{"json", "gob"} {
		t.Run(enc+"->bin", func(t *testing.T) { refuseLegacyClient(t, enc) })
		t.Run("bin->"+enc, func(t *testing.T) { refuseLegacyServer(t, enc) })
	}
}

// TestCodecHeaderStamping: the per-message "codec" header is gone. An
// untraced publish through a proxy carries no headers at all — no codec
// stamp, and no header map allocated for it.
func TestCodecHeaderStamping(t *testing.T) {
	m := mq.NewBroker()
	defer m.Close()
	b, err := NewBroker(m)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	const queue = "sniff"
	if err := m.DeclareQueue(queue); err != nil {
		t.Fatal(err)
	}
	sub, err := m.Subscribe(queue, 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Lookup(queue).Async("Fire", 1); err != nil {
		t.Fatal(err)
	}
	select {
	case d := <-sub.Deliveries():
		if d.Headers != nil {
			t.Fatalf("untraced publish carried headers %v, want none", d.Headers)
		}
		_ = d.Ack()
	case <-time.After(5 * time.Second):
		t.Fatal("no publish observed")
	}
}

// TestOneWayEnvelopeEndsAtFlag pins the size of a one-way call: the
// envelope of Async("Fire", 1) is its method, its one argument and the
// one-way flag, 12 B, with no empty reply-routing fields behind the flag
// (15 B when CorrelationID, ReplyTo and RequestID preceded it). A sync
// call still sends all three: TestRetriedErrorIsDeduplicated needs
// RequestID.
func TestOneWayEnvelopeEndsAtFlag(t *testing.T) {
	m := mq.NewBroker()
	defer m.Close()
	b, err := NewBroker(m)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	const queue = "sniff"
	if err := m.DeclareQueue(queue); err != nil {
		t.Fatal(err)
	}
	sub, err := m.Subscribe(queue, 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Lookup(queue).Async("Fire", 1); err != nil {
		t.Fatal(err)
	}
	select {
	case d := <-sub.Deliveries():
		_ = d.Ack()
		if len(d.Body) != 12 {
			t.Fatalf("one-way envelope is %d B, want 12", len(d.Body))
		}
		req, err := decodeRequest(d.Body)
		if err != nil {
			t.Fatal(err)
		}
		if req.Method != "Fire" || len(req.Args) != 1 || !req.OneWay || req.CorrelationID != "" || req.ReplyTo != "" || req.RequestID != "" {
			t.Fatalf("one-way envelope: %+v", req)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no publish observed")
	}
}

// versions is a remote object whose method takes and returns a uint64.
type versions struct{}

func (versions) Next(v uint64) uint64 { return v + 1 }

// TestArgumentKindMismatchFails pins the codec's top-level kind tag at the
// RPC boundary: an int passed where the handler takes a uint64, or a uint64
// reply read into an int, is an error, never a number misread from an
// untagged varint. Typed the same on both sides, the call succeeds.
func TestArgumentKindMismatchFails(t *testing.T) {
	server, client := twoBrokers(t)
	if _, err := server.Bind("versions", versions{}); err != nil {
		t.Fatal(err)
	}
	p := client.Lookup("versions", WithTimeout(5*time.Second), WithRetries(1))
	var next uint64
	err := p.Call("Next", &next, 41)
	var remote *RemoteError
	if !errors.As(err, &remote) || next != 0 {
		t.Fatalf("int argument for a uint64 parameter: next = %d, err = %v, want a remote error", next, err)
	}
	var asInt int
	if err := p.Call("Next", &asInt, uint64(41)); err == nil {
		t.Fatalf("uint64 reply decoded into an int: %d", asInt)
	}
	if err := p.Call("Next", &next, uint64(41)); err != nil || next != 42 {
		t.Fatalf("typed call: next = %d, err = %v", next, err)
	}
}

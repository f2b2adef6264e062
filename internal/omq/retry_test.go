package omq

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"stacksync/internal/mq"
)

// lossyReplies wraps an MQ and swallows the first n publishes addressed to
// the given queue — the shape of a lost @SyncMethod reply.
type lossyReplies struct {
	mq.MQ
	target string

	mu      sync.Mutex
	dropped int
	budget  int
}

func (l *lossyReplies) Publish(exchange, key string, msg mq.Message) error {
	if key == l.target {
		l.mu.Lock()
		if l.dropped < l.budget {
			l.dropped++
			l.mu.Unlock()
			return nil
		}
		l.mu.Unlock()
	}
	return l.MQ.Publish(exchange, key, msg)
}

// TestRetriedSyncCallExecutesOnce: when the reply is lost and the caller
// retries, the server recognizes the request id and re-acknowledges from its
// dedup table — the handler runs exactly once.
func TestRetriedSyncCallExecutesOnce(t *testing.T) {
	m := mq.NewBroker()
	defer m.Close()

	client, err := NewBroker(m)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	lossy := &lossyReplies{MQ: m, target: client.replyQueue, budget: 2}
	server, err := NewBroker(lossy)
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()

	c := &calc{}
	if _, err := server.Bind("calc", c); err != nil {
		t.Fatal(err)
	}

	p := client.Lookup("calc",
		WithTimeout(150*time.Millisecond),
		WithRetries(5),
		WithBackoff(time.Millisecond, 8*time.Millisecond))
	var sum int
	if err := p.Call("Add", &sum, addArgs{A: 2, B: 3}); err != nil {
		t.Fatalf("call: %v", err)
	}
	if sum != 5 {
		t.Fatalf("sum = %d, want 5", sum)
	}
	if got := c.calls.Load(); got != 1 {
		t.Fatalf("handler executed %d times under retry, want 1", got)
	}
	if lossy.dropped != 2 {
		t.Fatalf("dropped %d replies, want 2 (retry did not happen)", lossy.dropped)
	}
}

// TestRetriedErrorIsDeduplicated: a remembered handler *error* is also
// replayed — the retry must not re-execute a call that already failed.
func TestRetriedErrorIsDeduplicated(t *testing.T) {
	m := mq.NewBroker()
	defer m.Close()

	client, err := NewBroker(m)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	lossy := &lossyReplies{MQ: m, target: client.replyQueue, budget: 1}
	server, err := NewBroker(lossy)
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()

	c := &calc{}
	if _, err := server.Bind("calc", c); err != nil {
		t.Fatal(err)
	}

	p := client.Lookup("calc",
		WithTimeout(150*time.Millisecond),
		WithRetries(3),
		WithBackoff(time.Millisecond, 8*time.Millisecond))
	err = p.Call("Fail", nil, "boom")
	var re *RemoteError
	if !errors.As(err, &re) || re.Msg != "boom" {
		t.Fatalf("err = %v, want RemoteError boom", err)
	}
	if got := c.calls.Load(); got != 1 {
		t.Fatalf("failing handler executed %d times under retry, want 1", got)
	}
}

// unsettledReplies wraps an MQ and hands every delivery of the target queue
// on as a bare mq.Delivery{Message: …}, having acked the original itself:
// the copy has no settle func, so its Ack fails with ErrAlreadySettled.
type unsettledReplies struct {
	mq.MQ
	target string
}

type rewrappedSub struct {
	mq.Subscription
	ch chan mq.Delivery
}

func (s rewrappedSub) Deliveries() <-chan mq.Delivery { return s.ch }

func (u *unsettledReplies) Subscribe(queue string, prefetch int) (mq.Subscription, error) {
	sub, err := u.MQ.Subscribe(queue, prefetch)
	if err != nil || queue != u.target {
		return sub, err
	}
	out := make(chan mq.Delivery, prefetch) // as deep as the broker's own delivery buffer
	go func() {
		defer close(out)
		for d := range sub.Deliveries() {
			_ = d.Ack()
			out <- mq.Delivery{Message: d.Message}
		}
	}()
	return rewrappedSub{Subscription: sub, ch: out}, nil
}

// TestReplyDeliveredWhenAckFails: a reply that decoded reaches its caller
// even when acking it fails. Dropping it timed the call out, and a caller
// that retried would re-send a call that had already run.
func TestReplyDeliveredWhenAckFails(t *testing.T) {
	m := mq.NewBroker()
	defer m.Close()
	client, err := NewBroker(&unsettledReplies{MQ: m, target: "omq.reply.caller"}, WithID("caller"))
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	server, err := NewBroker(m)
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()
	c := &calc{}
	if _, err := server.Bind("calc", c); err != nil {
		t.Fatal(err)
	}
	var sum int
	if err := client.Lookup("calc", WithTimeout(time.Second), WithRetries(1)).Call("Add", &sum, addArgs{A: 2, B: 3}); err != nil {
		t.Fatalf("call whose reply could not be acked: %v", err)
	}
	if sum != 5 || c.calls.Load() != 1 {
		t.Fatalf("sum = %d after %d executions, want 5 after 1", sum, c.calls.Load())
	}
}

// flakyOneWay fails its first two invocations, then succeeds.
type flakyOneWay struct {
	calls atomic.Int64
	okAt  int64
}

func (f *flakyOneWay) Fire(n int) error {
	if f.calls.Add(1) < f.okAt {
		return errors.New("transient")
	}
	return nil
}

// TestOneWayHandlerErrorRequeues: a transiently failing @AsyncMethod handler
// no longer loses the call — the delivery is requeued until it succeeds.
func TestOneWayHandlerErrorRequeues(t *testing.T) {
	b := newTestBroker(t)
	f := &flakyOneWay{okAt: 3}
	bo, err := b.Bind("flaky", f)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Lookup("flaky").Async("Fire", 1); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for f.calls.Load() < 3 {
		if time.Now().After(deadline) {
			t.Fatalf("one-way call retried %d times, want 3", f.calls.Load())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if bo.Dropped() != 0 {
		t.Fatalf("call dropped despite eventual success")
	}
}

// TestBackoffDeterministicAndBounded: the jittered pause is a pure function
// of (request id, attempt) and stays within [0.5*step, 1.5*step).
func TestBackoffDeterministicAndBounded(t *testing.T) {
	p := &Proxy{backoffBase: 10 * time.Millisecond, backoffMax: 80 * time.Millisecond}
	for n := 0; n < 6; n++ {
		step := 10 * time.Millisecond << n
		if step > 80*time.Millisecond {
			step = 80 * time.Millisecond
		}
		d1, d2 := p.backoff("req-a", n), p.backoff("req-a", n)
		if d1 != d2 {
			t.Fatalf("attempt %d: backoff not deterministic (%v vs %v)", n, d1, d2)
		}
		if d1 < step/2 || d1 >= step*3/2 {
			t.Fatalf("attempt %d: backoff %v outside [%v, %v)", n, d1, step/2, step*3/2)
		}
	}
	if (&Proxy{}).backoff("x", 3) != 0 {
		t.Fatalf("zero base must disable backoff")
	}
	if p.backoff("req-a", 0) == p.backoff("req-b", 0) {
		t.Fatalf("different request ids drew identical jitter (suspicious)")
	}
}

// TestOneWayRetryDelayCaps: the requeue pause doubles from 10ms toward the
// 500ms ceiling, jittered into [0.5x, 1.5x) and decorrelated across seeds so
// a fleet of instances retrying the same poisoned fan-out spreads out.
func TestOneWayRetryDelayCaps(t *testing.T) {
	for i := 0; i < 3; i++ {
		step := 10 * time.Millisecond << i
		got := oneWayRetryDelay("seed", i)
		if got < step/2 || got >= step*3/2 {
			t.Fatalf("delay(%d) = %v outside [%v, %v)", i, got, step/2, step*3/2)
		}
	}
	if got := oneWayRetryDelay("seed", 100); got >= 750*time.Millisecond || got < 250*time.Millisecond {
		t.Fatalf("capped delay = %v outside [250ms, 750ms)", got)
	}
	if oneWayRetryDelay("instance-a", 2) == oneWayRetryDelay("instance-b", 2) {
		t.Fatalf("different instances drew identical requeue jitter (suspicious)")
	}
}

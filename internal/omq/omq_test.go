package omq

import (
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"stacksync/internal/mq"
)

// calc is a simple remote object used across tests.
type calc struct {
	id    string
	calls atomic.Int64
	sleep time.Duration
}

type addArgs struct {
	A int `json:"a"`
	B int `json:"b"`
}

func (c *calc) Add(args addArgs) int {
	c.calls.Add(1)
	if c.sleep > 0 {
		time.Sleep(c.sleep)
	}
	return args.A + args.B
}

func (c *calc) Fail(msg string) error {
	c.calls.Add(1)
	return errors.New(msg)
}

func (c *calc) Fire(n int) {
	c.calls.Add(1)
}

func (c *calc) WhoAmI(struct{}) string {
	c.calls.Add(1)
	return c.id
}

func newTestBroker(t *testing.T, opts ...BrokerOption) *Broker {
	t.Helper()
	m := mq.NewBroker()
	b, err := NewBroker(m, opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		_ = b.Close()
		_ = m.Close()
	})
	return b
}

// twoBrokers returns two omq brokers sharing one mq broker, modelling a
// client process and a server process.
func twoBrokers(t *testing.T) (*Broker, *Broker) {
	t.Helper()
	m := mq.NewBroker()
	server, err := NewBroker(m)
	if err != nil {
		t.Fatal(err)
	}
	client, err := NewBroker(m)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		_ = client.Close()
		_ = server.Close()
		_ = m.Close()
	})
	return server, client
}

func TestSyncCallRoundTrip(t *testing.T) {
	server, client := twoBrokers(t)
	if _, err := server.Bind("calc", &calc{}); err != nil {
		t.Fatal(err)
	}
	p := client.Lookup("calc")
	var sum int
	if err := p.Call("Add", &sum, addArgs{A: 20, B: 22}); err != nil {
		t.Fatal(err)
	}
	if sum != 42 {
		t.Fatalf("Add = %d, want 42", sum)
	}
}

func TestSyncCallRemoteError(t *testing.T) {
	server, client := twoBrokers(t)
	if _, err := server.Bind("calc", &calc{}); err != nil {
		t.Fatal(err)
	}
	err := client.Lookup("calc").Call("Fail", nil, "boom")
	var remote *RemoteError
	if !errors.As(err, &remote) {
		t.Fatalf("want *RemoteError, got %v", err)
	}
	if !strings.Contains(remote.Msg, "boom") {
		t.Fatalf("remote error message %q", remote.Msg)
	}
}

func TestSyncCallNoSuchMethod(t *testing.T) {
	server, client := twoBrokers(t)
	if _, err := server.Bind("calc", &calc{}); err != nil {
		t.Fatal(err)
	}
	err := client.Lookup("calc").Call("Missing", nil)
	var remote *RemoteError
	if !errors.As(err, &remote) || !strings.Contains(remote.Msg, "no such method") {
		t.Fatalf("want no-such-method RemoteError, got %v", err)
	}
}

func TestSyncCallArityMismatch(t *testing.T) {
	server, client := twoBrokers(t)
	if _, err := server.Bind("calc", &calc{}); err != nil {
		t.Fatal(err)
	}
	err := client.Lookup("calc").Call("Add", nil, addArgs{}, "extra")
	var remote *RemoteError
	if !errors.As(err, &remote) || !strings.Contains(remote.Msg, "wrong number of arguments") {
		t.Fatalf("want arity RemoteError, got %v", err)
	}
}

func TestSyncCallTimeoutWhenNoServer(t *testing.T) {
	b := newTestBroker(t)
	// Declare the queue so publishing succeeds, but bind no server.
	if err := b.mq.DeclareQueue("void"); err != nil {
		t.Fatal(err)
	}
	p := b.Lookup("void", WithTimeout(30*time.Millisecond), WithRetries(2))
	start := time.Now()
	err := p.Call("Anything", nil)
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("want ErrTimeout, got %v", err)
	}
	if elapsed := time.Since(start); elapsed < 55*time.Millisecond {
		t.Fatalf("retries not honoured: returned after %v", elapsed)
	}
}

func TestAsyncCallExecutes(t *testing.T) {
	server, client := twoBrokers(t)
	c := &calc{}
	if _, err := server.Bind("calc", c); err != nil {
		t.Fatal(err)
	}
	if err := client.Lookup("calc").Async("Fire", 1); err != nil {
		t.Fatal(err)
	}
	waitFor(t, time.Second, func() bool { return c.calls.Load() == 1 })
}

func TestAsyncErrorsAreSilent(t *testing.T) {
	server, client := twoBrokers(t)
	c := &calc{}
	if _, err := server.Bind("calc", c); err != nil {
		t.Fatal(err)
	}
	// @AsyncMethod: "the client is not even notified if the message was
	// handled correctly" — the call must succeed locally.
	if err := client.Lookup("calc").Async("Fail", "silent"); err != nil {
		t.Fatal(err)
	}
	waitFor(t, time.Second, func() bool { return c.calls.Load() == 1 })
}

func TestUnicastLoadBalancesAcrossInstances(t *testing.T) {
	m := mq.NewBroker()
	defer m.Close()
	var servers []*Broker
	var impls []*calc
	for i := 0; i < 3; i++ {
		b, err := NewBroker(m)
		if err != nil {
			t.Fatal(err)
		}
		defer b.Close()
		c := &calc{id: b.ID()}
		if _, err := b.Bind("calc", c); err != nil {
			t.Fatal(err)
		}
		servers = append(servers, b)
		impls = append(impls, c)
	}
	client, err := NewBroker(m)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	p := client.Lookup("calc")
	const calls = 30
	for i := 0; i < calls; i++ {
		var sum int
		if err := p.Call("Add", &sum, addArgs{A: i, B: 1}); err != nil {
			t.Fatal(err)
		}
		// An instance acks a call after replying; round-robin skips one whose
		// ack has not landed yet, so wait for it before the next call.
		waitFor(t, 2*time.Second, func() bool {
			st, err := m.QueueStats("calc")
			return err == nil && st.Unacked == 0
		})
	}
	for i, c := range impls {
		if got := c.calls.Load(); got < 5 {
			t.Fatalf("instance %d starved: handled only %d/%d calls", i, got, calls)
		}
	}
}

func TestMultiReachesAllInstances(t *testing.T) {
	m := mq.NewBroker()
	defer m.Close()
	var impls []*calc
	for i := 0; i < 4; i++ {
		b, err := NewBroker(m)
		if err != nil {
			t.Fatal(err)
		}
		defer b.Close()
		c := &calc{id: b.ID()}
		if _, err := b.Bind("calc", c); err != nil {
			t.Fatal(err)
		}
		impls = append(impls, c)
	}
	client, err := NewBroker(m)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if err := client.Lookup("calc").Multi("Fire", 9); err != nil {
		t.Fatal(err)
	}
	waitFor(t, time.Second, func() bool {
		for _, c := range impls {
			if c.calls.Load() != 1 {
				return false
			}
		}
		return true
	})
}

func TestMultiCallCollectsAllReplies(t *testing.T) {
	m := mq.NewBroker()
	defer m.Close()
	ids := make(map[string]bool)
	for i := 0; i < 3; i++ {
		b, err := NewBroker(m)
		if err != nil {
			t.Fatal(err)
		}
		defer b.Close()
		ids[b.ID()] = false
		if _, err := b.Bind("calc", &calc{id: b.ID()}); err != nil {
			t.Fatal(err)
		}
	}
	client, err := NewBroker(m)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	replies, err := client.Lookup("calc").MultiCall("WhoAmI", 300*time.Millisecond, struct{}{})
	if err != nil {
		t.Fatal(err)
	}
	if len(replies) != 3 {
		t.Fatalf("collected %d replies, want 3", len(replies))
	}
	for _, r := range replies {
		var id string
		if err := r.Decode(&id); err != nil {
			t.Fatal(err)
		}
		seen, ok := ids[id]
		if !ok || seen {
			t.Fatalf("unexpected or duplicate reply from %q", id)
		}
		ids[id] = true
	}
}

func TestCrashedInstanceCallRedelivered(t *testing.T) {
	// Fault tolerance (§3.4): a call delivered to an instance that dies
	// before acking must be redelivered to a healthy instance.
	m := mq.NewBroker()
	defer m.Close()

	blockEntered := make(chan struct{})
	release := make(chan struct{})
	crashy, err := NewBroker(m)
	if err != nil {
		t.Fatal(err)
	}
	crashyBO, err := crashy.Bind("svc", &blocker{entered: blockEntered, release: release})
	if err != nil {
		t.Fatal(err)
	}

	client, err := NewBroker(m)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	p := client.Lookup("svc", WithTimeout(3*time.Second), WithRetries(1))

	result := make(chan error, 1)
	go func() {
		var out string
		result <- p.Call("Work", &out, "payload")
	}()
	<-blockEntered // the crashy instance holds the unacked delivery

	// Spin up the healthy instance, then crash the blocked one.
	healthy, err := NewBroker(m)
	if err != nil {
		t.Fatal(err)
	}
	defer healthy.Close()
	if _, err := healthy.Bind("svc", &echoer{}); err != nil {
		t.Fatal(err)
	}
	crashyBO.Kill() // cancels subscriptions without waiting -> redelivery

	if err := <-result; err != nil {
		t.Fatalf("call lost after instance crash: %v", err)
	}
	close(release) // let the abandoned handler finish before closing brokers
	_ = crashy.Close()
}

type blocker struct {
	entered chan struct{}
	release chan struct{}
	once    sync.Once
}

func (b *blocker) Work(s string) string {
	b.once.Do(func() { close(b.entered) })
	<-b.release
	return "from-blocker"
}

type echoer struct{}

func (echoer) Work(s string) string { return "echo:" + s }

func TestServiceStatsTracked(t *testing.T) {
	server, client := twoBrokers(t)
	c := &calc{sleep: 5 * time.Millisecond}
	bo, err := server.Bind("calc", c)
	if err != nil {
		t.Fatal(err)
	}
	p := client.Lookup("calc")
	for i := 0; i < 5; i++ {
		var sum int
		if err := p.Call("Add", &sum, addArgs{A: 1, B: 1}); err != nil {
			t.Fatal(err)
		}
	}
	st := bo.Stats()
	if st.Count != 5 {
		t.Fatalf("stats count = %d, want 5", st.Count)
	}
	if st.Mean < 4*time.Millisecond {
		t.Fatalf("mean service time %v implausibly low", st.Mean)
	}
	// The instance acks a call after replying to it, so the fifth ack may
	// land after the fifth reply has returned: wait for it.
	var info ObjectInfo
	for deadline := time.Now().Add(2 * time.Second); ; time.Sleep(time.Millisecond) {
		if info, err = server.ObjectInfo("calc"); err != nil {
			t.Fatal(err)
		}
		if info.Processed == 5 || time.Now().After(deadline) {
			break
		}
	}
	if info.Processed != 5 || info.Instances != 1 {
		t.Fatalf("object info: %+v", info)
	}
	if info.MeanServiceTime != st.Mean {
		t.Fatalf("info mean %v != stats mean %v", info.MeanServiceTime, st.Mean)
	}
}

func TestBindDuplicateOIDFails(t *testing.T) {
	b := newTestBroker(t)
	if _, err := b.Bind("calc", &calc{}); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Bind("calc", &calc{}); !errors.Is(err, ErrAlreadyBound) {
		t.Fatalf("duplicate bind: %v", err)
	}
}

func TestBindRejectsBadImplementations(t *testing.T) {
	b := newTestBroker(t)
	if _, err := b.Bind("x", nil); err == nil {
		t.Fatal("nil implementation accepted")
	}
	if _, err := b.Bind("y", (*calc)(nil)); err == nil {
		t.Fatal("typed-nil implementation accepted")
	}
	if _, err := b.Bind("z", &struct{}{}); err == nil {
		t.Fatal("method-less implementation accepted")
	}
	type tooMany struct{}
	if _, err := b.Bind("w", badReturns{}); err == nil {
		t.Fatal("3-return method accepted")
	}
	_ = tooMany{}
}

type badReturns struct{}

func (badReturns) Three() (int, string, error) { return 0, "", nil }

func TestUnbindStopsServing(t *testing.T) {
	server, client := twoBrokers(t)
	bo, err := server.Bind("calc", &calc{})
	if err != nil {
		t.Fatal(err)
	}
	if err := bo.Unbind(); err != nil {
		t.Fatal(err)
	}
	p := client.Lookup("calc", WithTimeout(50*time.Millisecond), WithRetries(1))
	if err := p.Call("Add", nil, addArgs{}); !errors.Is(err, ErrTimeout) {
		t.Fatalf("call after unbind: %v", err)
	}
	// Rebinding must work (queue still exists).
	if _, err := server.Bind("calc", &calc{}); err != nil {
		t.Fatalf("rebind: %v", err)
	}
	var sum int
	if err := client.Lookup("calc").Call("Add", &sum, addArgs{A: 2, B: 3}); err != nil || sum != 5 {
		t.Fatalf("call after rebind: sum=%d err=%v", sum, err)
	}
}

func TestBrokerCloseIdempotent(t *testing.T) {
	m := mq.NewBroker()
	defer m.Close()
	b, err := NewBroker(m)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Bind("calc", &calc{}); err != nil {
		t.Fatal(err)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	if err := b.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
	if _, err := b.Bind("other", &calc{}); !errors.Is(err, ErrClosed) {
		t.Fatalf("bind after close: %v", err)
	}
}

func TestWorksOverNetworkMQ(t *testing.T) {
	// Full stack: omq on top of the TCP mq client/server.
	inner := mq.NewBroker()
	defer inner.Close()
	srv, err := mq.NewServer(inner, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	serverMQ, err := mq.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer serverMQ.Close()
	clientMQ, err := mq.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer clientMQ.Close()

	server, err := NewBroker(serverMQ)
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()
	client, err := NewBroker(clientMQ)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	if _, err := server.Bind("calc", &calc{}); err != nil {
		t.Fatal(err)
	}
	var sum int
	if err := client.Lookup("calc").Call("Add", &sum, addArgs{A: 7, B: 35}); err != nil {
		t.Fatal(err)
	}
	if sum != 42 {
		t.Fatalf("networked Add = %d", sum)
	}
}

func waitFor(t *testing.T, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("condition not met before timeout")
}

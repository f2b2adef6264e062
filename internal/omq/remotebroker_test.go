package omq

import (
	"context"
	"sync"
	"testing"
	"time"

	"stacksync/internal/mq"
	"stacksync/internal/obs"
)

// newNode starts a RemoteBroker for the worker service on m with opts.
func newNode(t *testing.T, m mq.MQ, opts ...BrokerOption) *RemoteBroker {
	t.Helper()
	b, err := NewBroker(m, append([]BrokerOption{WithID("10-node")}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := NewRemoteBroker(b)
	if err != nil {
		t.Fatal(err)
	}
	rb.RegisterFactory("svc", func() (interface{}, error) { return worker{}, nil })
	t.Cleanup(func() {
		_ = rb.Close()
		_ = b.Close()
	})
	return rb
}

// TestInstanceStopsAreEvents: a drained and a killed instance each leave
// exactly one event naming them, so the flight recorder tells the two apart.
func TestInstanceStopsAreEvents(t *testing.T) {
	m := mq.NewBroker()
	defer m.Close()
	events := obs.NewEventLog(64)
	rb := newNode(t, m, WithEventLog(events))
	if _, err := rb.SpawnLocal("svc", 2); err != nil {
		t.Fatal(err)
	}
	ids := rb.InstanceIDs("svc")
	if len(ids) != 2 {
		t.Fatalf("InstanceIDs = %v, want 2", ids)
	}
	// Both stop the newest instance first.
	if rb.ShutdownLocal("svc", 1) != 1 {
		t.Fatal("ShutdownLocal stopped nothing")
	}
	if got := rb.KillLocal("svc"); got != ids[0] {
		t.Fatalf("KillLocal killed %q, want %q", got, ids[0])
	}
	want := map[obs.EventKind]string{obs.EventInstanceDrain: ids[1], obs.EventInstanceKill: ids[0]}
	seen := map[obs.EventKind]int{}
	for _, e := range events.Tail(events.Len()) {
		if id, ok := want[e.Kind]; ok {
			seen[e.Kind]++
			if e.Fields["instance"] != id || e.Fields["oid"] != "svc" {
				t.Fatalf("%s event fields %v, want instance %s of svc", e.Kind, e.Fields, id)
			}
		}
	}
	if seen[obs.EventInstanceDrain] != 1 || seen[obs.EventInstanceKill] != 1 {
		t.Fatalf("events %v, want one drain and one kill", seen)
	}
}

// headerSpy records the headers of every message published through it.
type headerSpy struct {
	mq.MQ
	mu      sync.Mutex
	headers []map[string]string
}

func (s *headerSpy) Publish(exchange, key string, msg mq.Message) error {
	s.mu.Lock()
	s.headers = append(s.headers, msg.Headers)
	s.mu.Unlock()
	return s.MQ.Publish(exchange, key, msg)
}

// TestUntracedNodeSpawnsUntracedChildren: a node without a tracer spawns
// children without one, so their publishes carry no headers even under a
// traced context, and nothing records a span.
func TestUntracedNodeSpawnsUntracedChildren(t *testing.T) {
	m := mq.NewBroker()
	defer m.Close()
	spy := &headerSpy{MQ: m}
	rb := newNode(t, spy)
	if _, err := rb.SpawnLocal("svc", 1); err != nil {
		t.Fatal(err)
	}
	child := rb.instances["svc"][0].ownedBroker
	if child.Tracer() != nil {
		t.Fatal("untraced node spawned a traced child")
	}
	spy.mu.Lock()
	spy.headers = nil
	spy.mu.Unlock()
	ctx := obs.ContextWith(context.Background(), obs.NewTraceContext())
	if err := child.Lookup("svc").AsyncCtx(ctx, "Do", 1); err != nil {
		t.Fatal(err)
	}
	if err := child.Lookup("svc").MultiCtx(ctx, "Do", 2); err != nil {
		t.Fatal(err)
	}
	spy.mu.Lock()
	defer spy.mu.Unlock()
	if len(spy.headers) != 2 {
		t.Fatalf("%d publishes seen, want 2", len(spy.headers))
	}
	for i, h := range spy.headers {
		if h != nil {
			t.Fatalf("publish %d carries headers %v, want nil", i, h)
		}
	}
}

// TestTracedNodeStampsChildSpans: every child of a traced node records into
// the node's sink, each span stamped with the child's instance id.
func TestTracedNodeStampsChildSpans(t *testing.T) {
	m := mq.NewBroker()
	defer m.Close()
	tracer := obs.NewTracer()
	rb := newNode(t, m, WithTracer(tracer))
	if _, err := rb.SpawnLocal("svc", 2); err != nil {
		t.Fatal(err)
	}
	ids := rb.InstanceIDs("svc")
	client, err := NewBroker(m, WithID("zz-client"), WithTracer(tracer))
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	root := tracer.StartRoot("client.fanout")
	if err := client.Lookup("svc").MultiCtx(obs.ContextWith(context.Background(), root.Context()), "Do", 1); err != nil {
		t.Fatal(err)
	}
	root.End()
	// Each instance records a dwell and a handler span under the publish.
	byInstance := map[string]int{}
	waitFor(t, 5*time.Second, func() bool {
		clear(byInstance)
		for _, sp := range tracer.Sink().Trace(root.Context().TraceID) {
			if sp.Name == "mq.dwell" || sp.Name == "omq.handle.Do" {
				byInstance[sp.Instance]++
			}
		}
		return len(byInstance) == 2 && byInstance[ids[0]] == 2 && byInstance[ids[1]] == 2
	})
}

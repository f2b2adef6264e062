package omq

import (
	"context"
	"sync"
	"testing"
	"time"

	"stacksync/internal/clock"
	"stacksync/internal/mq"
	"stacksync/internal/obs"
)

type okImpl struct{}

func (okImpl) Do(n int) (int, error) { return n + 1, nil }

// ringAuthority serves GetRing with a fixed state — the router's Refresh
// source, standing in for the Supervisor.
type ringAuthority struct{ state RingState }

func (r *ringAuthority) GetRing(struct{}) RingState { return r.state }

// TestRouterAttemptSpans: a routed call whose first owner's queue is gone
// must record one child span per attempt under an omq.route parent, with the
// failover cause, owner and epoch annotated — the attempt-by-attempt
// attribution the fleet /tracez view shows.
func TestRouterAttemptSpans(t *testing.T) {
	m := mq.NewBroker()
	defer m.Close()
	sink := obs.NewSpanSink(0)
	tracer := obs.NewTracer(obs.WithSink(sink), obs.WithInstance("client"))
	client, err := NewBroker(m, WithTracer(tracer))
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	server, err := NewBroker(m)
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()

	// The live instance serves its private routed queue; "ghost" has none.
	if _, err := server.Bind(RoutedInstanceOID("svc", "real"), okImpl{}); err != nil {
		t.Fatal(err)
	}
	// The ring authority already knows the repaired ring (epoch 2, real only).
	if _, err := server.Bind("svc.ringsrc", &ringAuthority{state: RingState{
		Epoch: 2, Members: []string{"real"},
	}}); err != nil {
		t.Fatal(err)
	}

	r := NewRouter(client, RouterConfig{
		OID: "svc", Timeout: 300 * time.Millisecond, Attempts: 4,
		BackoffBase: time.Millisecond, BackoffMax: 2 * time.Millisecond,
		RefreshFrom: "svc.ringsrc",
	})
	// The router starts on a stale ring naming a dead owner.
	r.UpdateRing(RingState{Epoch: 1, Members: []string{"ghost"}})

	root := tracer.StartRoot("client.commit")
	ctx := obs.ContextWith(context.Background(), root.Context())
	var reply int
	if err := r.CallCtx(ctx, "w1", "Do", &reply, 41); err != nil {
		t.Fatalf("routed call failed: %v", err)
	}
	root.End()
	if reply != 42 {
		t.Fatalf("reply = %d", reply)
	}

	spans := sink.Trace(root.Context().TraceID)
	var route *obs.Span
	var attempts []obs.Span
	for i := range spans {
		switch spans[i].Name {
		case "omq.route.Do":
			route = &spans[i]
		case "omq.attempt.Do":
			attempts = append(attempts, spans[i])
		}
	}
	if route == nil {
		t.Fatalf("no route span in %d spans", len(spans))
	}
	if got := route.Annot("key"); got != "w1" {
		t.Fatalf("route key annot = %q", got)
	}
	if len(attempts) != 2 {
		t.Fatalf("attempt spans = %d, want 2", len(attempts))
	}
	for _, a := range attempts {
		if a.ParentID != route.SpanID {
			t.Fatalf("attempt span not parented under route span: %+v", a)
		}
	}
	first, second := attempts[0], attempts[1]
	if first.Annot("attempt") == "2" {
		first, second = second, first
	}
	if first.Annot("cause") != CauseQueueNotFound {
		t.Fatalf("first attempt cause = %q, want %q (annots %+v)",
			first.Annot("cause"), CauseQueueNotFound, first.Annots)
	}
	if first.Annot("owner") != "ghost" || first.Annot("epoch") != "1" {
		t.Fatalf("first attempt routing annots wrong: %+v", first.Annots)
	}
	if second.Annot("cause") != "" {
		t.Fatalf("successful attempt carries cause %q", second.Annot("cause"))
	}
	if second.Annot("owner") != "real" || second.Annot("epoch") != "2" {
		t.Fatalf("second attempt routing annots wrong: %+v", second.Annots)
	}
	if second.Annot("backoff") == "" {
		t.Fatalf("retry attempt missing backoff annot: %+v", second.Annots)
	}
	if second.Instance != "client" {
		t.Fatalf("attempt span instance = %q", second.Instance)
	}
}

// TestRouterUntracedStaysCheap: with tracing disabled the routed path must
// record nothing and allocate no span machinery (nil handles end to end).
func TestRouterUntracedNoSpans(t *testing.T) {
	m := mq.NewBroker()
	defer m.Close()
	client, err := NewBroker(m)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	server, err := NewBroker(m)
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()
	if _, err := server.Bind(RoutedInstanceOID("svc", "real"), okImpl{}); err != nil {
		t.Fatal(err)
	}
	r := NewRouter(client, RouterConfig{OID: "svc", Timeout: 300 * time.Millisecond, Attempts: 2})
	r.UpdateRing(RingState{Epoch: 1, Members: []string{"real"}})
	var reply int
	if err := r.Call("w1", "Do", &reply, 1); err != nil {
		t.Fatal(err)
	}
	if reply != 2 {
		t.Fatalf("reply = %d", reply)
	}
}

// movingRingAuthority serves GetRing and fences routed calls by its current
// ring; Bump moves the ring to a new epoch, as a rebalance does.
type movingRingAuthority struct {
	mu    sync.Mutex
	state RingState
}

func (a *movingRingAuthority) GetRing(struct{}) RingState {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.state
}

func (a *movingRingAuthority) Do(ctx context.Context, n int) (int, error) {
	a.mu.Lock()
	ring := NewRing(a.state)
	a.mu.Unlock()
	if err := CheckRoute(ctx, ring, "a"); err != nil {
		return 0, err
	}
	return n + 1, nil
}

func (a *movingRingAuthority) Bump() {
	a.mu.Lock()
	a.state.Epoch++
	a.mu.Unlock()
}

// backoffHookClock runs hook in place of each backoff sleep.
type backoffHookClock struct {
	clock.Real
	hook func()
}

func (c backoffHookClock) Sleep(time.Duration) { c.hook() }

// TestRouterRefreshesAfterBackoff: when the ring moves on during every
// backoff (a kill cadence shorter than the backoff), a retry must re-resolve
// the owner after sleeping. A ring fetched before the sleep is stale by the
// time the call goes out, and every attempt would be fenced.
func TestRouterRefreshesAfterBackoff(t *testing.T) {
	m := mq.NewBroker()
	defer m.Close()
	auth := &movingRingAuthority{state: RingState{Epoch: 2, Members: []string{"a"}}}
	server, err := NewBroker(m)
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()
	if _, err := server.Bind(RoutedInstanceOID("svc", "a"), auth); err != nil {
		t.Fatal(err)
	}
	if _, err := server.Bind("svc.ringsrc", auth); err != nil {
		t.Fatal(err)
	}
	client, err := NewBroker(m, WithBrokerClock(backoffHookClock{hook: auth.Bump}))
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	r := NewRouter(client, RouterConfig{
		OID: "svc", Timeout: time.Second, Attempts: 4,
		BackoffBase: time.Millisecond, RefreshFrom: "svc.ringsrc",
	})
	r.UpdateRing(RingState{Epoch: 1, Members: []string{"a"}})
	var reply int
	if err := r.Call("w1", "Do", &reply, 41); err != nil {
		t.Fatalf("routed call failed although the ring was current after each backoff: %v", err)
	}
	if reply != 42 {
		t.Fatalf("reply = %d", reply)
	}
}

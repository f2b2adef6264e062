package omq

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"

	"stacksync/internal/mq"
	"stacksync/internal/obs"
)

// Router is the workspace-affinity front of an object id: instead of
// publishing into the shared load-balanced queue, a routed call is addressed
// to the private request queue of the instance that owns the call's key on
// the current consistent-hash ring. Every routed publish is stamped with the
// ring epoch it was routed under; an instance holding a different ring
// rejects the call with ErrStaleRoute, and the router refreshes its ring and
// retries against the (possibly new) owner. A crashed owner surfaces as a
// per-attempt timeout: the router refreshes and retries with jittered
// backoff until the Supervisor has removed the corpse from the ring, at
// which point the retry lands on the successor instance.
//
// Safety does not depend on the router guessing right: a misrouted commit is
// either fenced (stale epoch) or absorbed by the metadata store's replay
// detection, so a routed call is applied at most once no matter how many
// owners it visits.

// Routed-call message headers. They travel next to the trace headers and are
// surfaced to handlers through the request context (RouteFromContext).
const (
	// HeaderRouteEpoch carries the ring epoch the caller routed under.
	HeaderRouteEpoch = "x-route-epoch"
	// HeaderRouteKey carries the affinity key (the workspace id).
	HeaderRouteKey = "x-route-key"
)

// staleRouteMarker is the substring fencing errors carry across the wire;
// RemoteError flattens error chains to strings, so detection is textual.
const staleRouteMarker = "stale route"

// ErrStaleRoute fences a call routed under an epoch (or to an owner) the
// serving instance disagrees with. Routers treat it as "refresh the ring and
// try again"; it never means the call failed permanently.
var ErrStaleRoute = errors.New("omq: " + staleRouteMarker)

// IsStaleRoute reports whether err is a fencing rejection, locally wrapped
// or carried back through a RemoteError.
func IsStaleRoute(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, ErrStaleRoute) {
		return true
	}
	var re *RemoteError
	return errors.As(err, &re) && strings.Contains(re.Msg, staleRouteMarker)
}

// RouteInfo is the routing stamp of an in-flight call.
type RouteInfo struct {
	// Key is the affinity key the caller routed by.
	Key string
	// Epoch is the ring epoch the routing decision used.
	Epoch uint64
}

type routeCtxKey struct{}

// routeContext attaches a routing stamp to a handler context.
func routeContext(ctx context.Context, info RouteInfo) context.Context {
	return context.WithValue(ctx, routeCtxKey{}, info)
}

// RouteFromContext extracts the routing stamp of the current call, if the
// caller routed it. Unrouted calls (legacy shared-queue path) return false,
// and fencing checks must let them pass.
func RouteFromContext(ctx context.Context) (RouteInfo, bool) {
	info, ok := ctx.Value(routeCtxKey{}).(RouteInfo)
	return info, ok
}

// RoutedInstanceOID names the private request queue of one instance of an
// object id. Spawned instances bind it next to the shared oid queue.
func RoutedInstanceOID(oid, instanceID string) string {
	return oid + ".i." + instanceID
}

// RouterConfig parameterizes a Router.
type RouterConfig struct {
	// OID is the routed object id (e.g. core.ServiceOID). Required.
	OID string
	// Timeout bounds each routed attempt (default DefaultTimeout).
	Timeout time.Duration
	// Attempts bounds routed attempts across ring refreshes (default 10).
	// Each failed attempt refreshes the ring before retrying, so the budget
	// must outlast the Supervisor's crash-detection and rebalance latency.
	Attempts int
	// BackoffBase and BackoffMax shape the jittered pause between attempts
	// (defaults DefaultBackoffBase / DefaultBackoffMax).
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// RefreshFrom is the object id answering GetRing (default SupervisorOID).
	// Empty string with no installed ring leaves the router unrouted until
	// UpdateRing is called.
	RefreshFrom string
	// RefreshTimeout bounds one GetRing call (default 500 ms).
	RefreshTimeout time.Duration
}

func (c *RouterConfig) applyDefaults() {
	if c.Timeout <= 0 {
		c.Timeout = DefaultTimeout
	}
	if c.Attempts <= 0 {
		c.Attempts = 10
	}
	if c.BackoffBase <= 0 {
		c.BackoffBase = DefaultBackoffBase
	}
	if c.BackoffMax <= 0 {
		c.BackoffMax = DefaultBackoffMax
	}
	if c.RefreshFrom == "" {
		c.RefreshFrom = SupervisorOID
	}
	if c.RefreshTimeout <= 0 {
		c.RefreshTimeout = 500 * time.Millisecond
	}
}

// Router routes sync calls by affinity key. Safe for concurrent use.
type Router struct {
	broker *Broker
	cfg    RouterConfig

	mu   sync.RWMutex
	ring *Ring

	ringSource *Proxy

	// Registry series, labelled by oid: routed attempts, fencing rejections,
	// failover retries after timeouts, and ring refresh adoptions.
	routedTotal   *obs.Counter
	staleTotal    *obs.Counter
	failoverTotal *obs.Counter
	refreshTotal  *obs.Counter
}

// NewRouter builds a router over the broker. The router starts without a
// ring: the first routed call (or an explicit Refresh/UpdateRing) installs
// one. Without a ring, calls fall back to the shared load-balanced queue, so
// a deployment that never enables routing behaves exactly as before.
func NewRouter(b *Broker, cfg RouterConfig) *Router {
	cfg.applyDefaults()
	r := &Router{
		broker:        b,
		cfg:           cfg,
		routedTotal:   b.reg.Counter("omq_router_calls_total", "oid", cfg.OID),
		staleTotal:    b.reg.Counter("omq_router_stale_total", "oid", cfg.OID),
		failoverTotal: b.reg.Counter("omq_router_failover_total", "oid", cfg.OID),
		refreshTotal:  b.reg.Counter("omq_router_refresh_total", "oid", cfg.OID),
	}
	r.ringSource = b.Lookup(cfg.RefreshFrom,
		WithTimeout(cfg.RefreshTimeout), WithRetries(1), WithBackoff(0, 0))
	return r
}

// Ring returns the router's current ring view (nil before the first
// refresh).
func (r *Router) Ring() *Ring {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.ring
}

// UpdateRing installs a ring state if it is newer than the current view.
// Tests and in-process deployments use it to hand the router a ring without
// a GetRing round trip.
func (r *Router) UpdateRing(state RingState) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.ring != nil && state.Epoch <= r.ring.Epoch() {
		return false
	}
	r.ring = NewRing(state)
	r.refreshTotal.Inc()
	return true
}

// Refresh fetches the authoritative ring (GetRing on RefreshFrom) and adopts
// it when newer. Errors are swallowed: a router that cannot reach the ring
// authority keeps routing on its current view.
func (r *Router) Refresh() {
	var state RingState
	if err := r.ringSource.Call("GetRing", &state, struct{}{}); err != nil {
		return
	}
	if len(state.Members) == 0 {
		return
	}
	r.UpdateRing(state)
}

// Call routes a blocking invocation by key. See CallCtx.
func (r *Router) Call(key, method string, reply interface{}, args ...interface{}) error {
	return r.CallCtx(context.Background(), key, method, reply, args...)
}

// CallCtx routes a blocking invocation: resolve the key's owner on the
// current ring, stamp the publish with the ring epoch, and call the owner's
// private queue. On a fencing rejection or a timeout the router sleeps a
// jittered backoff, refreshes the ring, and retries — against the successor
// once the ring has moved on. The request id is stable across all attempts,
// so an owner that executed the call but lost the reply re-acknowledges from
// its dedup table instead of executing twice.
// Failover-cause annotation values on router attempt spans.
const (
	CauseStaleRoute      = "stale-route"
	CauseRoutedTimeout   = "routed-timeout"
	CauseQueueNotFound   = "queue-not-found"
	CauseFallbackTimeout = "fallback-timeout"
)

func (r *Router) CallCtx(ctx context.Context, key, method string, reply interface{}, args ...interface{}) error {
	requestID := newID()
	// The route span parents one child span per attempt, so a failed-over
	// commit reads attempt-by-attempt in /tracez instead of as one opaque
	// latency. All span work is nil-safe: with the tracer disabled (or an
	// untraced caller) the handles are nil and every call below is a no-op.
	// An untraced caller (resync loops, retransmitters) still gets a trace:
	// the route span roots one, so a failover is never invisible just
	// because nobody upstream was tracing.
	var route *obs.SpanHandle
	if ptc := obs.FromContext(ctx); ptc.Valid() {
		route = r.broker.tracer.StartChild(ptc, "omq.route."+method)
	} else {
		route = r.broker.tracer.StartRoot("omq.route." + method)
	}
	route.Annotate("key", key)
	ctx = obs.ContextWith(ctx, route.Context())
	defer route.End()
	var lastErr error
	for attempt := 0; attempt < r.cfg.Attempts; attempt++ {
		var wait time.Duration
		if attempt > 0 {
			wait = retryJitter(r.broker.id+requestID, attempt-1, r.cfg.BackoffBase, r.cfg.BackoffMax)
			r.broker.clk.Sleep(wait)
		}
		// A retry re-resolves the owner after the backoff, not before it:
		// a ring fetched before sleeping may already be stale when the call
		// goes out, and under a kill cadence shorter than the backoff every
		// retry would be fenced again.
		ring := r.Ring()
		if attempt > 0 || ring == nil || len(ring.Members()) == 0 {
			r.Refresh()
			ring = r.Ring()
		}
		p, owner, routed := r.proxyFor(ring, key)
		p.requestID = requestID
		r.routedTotal.Inc()
		span := r.broker.tracer.StartFromContext(ctx, "omq.attempt."+method)
		span.Annotate("attempt", strconv.Itoa(attempt+1))
		if wait > 0 {
			span.Annotate("backoff", wait.String())
		}
		if routed {
			span.Annotate("owner", owner)
			span.Annotate("epoch", strconv.FormatUint(ring.Epoch(), 10))
		}
		err := p.CallCtx(obs.ContextWith(ctx, span.Context()), method, reply, args...)
		switch {
		case err == nil:
			span.End()
			return nil
		case IsStaleRoute(err):
			// The owner fenced us: our ring (or the instance's) is behind.
			// The retry re-routes; the instance catches up via UpdateRing.
			span.Annotate("cause", CauseStaleRoute)
			r.staleTotal.Inc()
			lastErr = err
		case routed && errors.Is(err, mq.ErrQueueNotFound):
			// The owner's private queue is gone: the instance was drained and
			// its queue deleted (scale-in) before our ring caught up. The
			// cheapest failover signal there is — no timeout to wait out.
			span.Annotate("cause", CauseQueueNotFound)
			r.failoverTotal.Inc()
			lastErr = err
		case errors.Is(err, ErrTimeout) && routed:
			// The owner did not answer — crashed, partitioned, or draining.
			// The retry follows the Supervisor's repaired ring to the
			// successor instance.
			span.Annotate("cause", CauseRoutedTimeout)
			r.failoverTotal.Inc()
			lastErr = err
		case errors.Is(err, ErrTimeout):
			// Unrouted fallback timed out; nothing to fail over to, but the
			// fleet may simply not be up yet. Retry within the budget.
			span.Annotate("cause", CauseFallbackTimeout)
			lastErr = err
		default:
			span.Annotate("cause", "error")
			span.End()
			return err
		}
		span.End()
	}
	return fmt.Errorf("omq: routed %s on %q key %q after %d attempts: %w",
		method, r.cfg.OID, key, r.cfg.Attempts, lastErr)
}

// proxyFor builds the per-attempt proxy: the owner's private queue with
// route headers when a ring is installed, the shared queue otherwise.
// Proxies are cheap (stateless but for counters), so one per attempt keeps
// the header stamping race-free.
func (r *Router) proxyFor(ring *Ring, key string) (p *Proxy, owner string, routed bool) {
	opts := []CallOption{WithTimeout(r.cfg.Timeout), WithRetries(1), WithBackoff(0, 0)}
	if ring == nil || len(ring.Members()) == 0 {
		return r.broker.Lookup(r.cfg.OID, opts...), "", false
	}
	owner = ring.Owner(key)
	opts = append(opts, WithCallHeaders(map[string]string{
		HeaderRouteEpoch: strconv.FormatUint(ring.Epoch(), 10),
		HeaderRouteKey:   key,
	}))
	return r.broker.Lookup(RoutedInstanceOID(r.cfg.OID, owner), opts...), owner, true
}

// CheckRoute is the fencing predicate service instances call with the stamp of an
// incoming request: nil for unrouted calls and for stamps matching the
// instance's ring view; ErrStaleRoute (wrapped with detail) otherwise. An
// instance that has not yet received a ring accepts routed calls — the
// bootstrap grace window between Spawn and the first UpdateRing — which is
// safe because application is idempotent at the metadata store.
func CheckRoute(ctx context.Context, ring *Ring, instanceID string) error {
	info, ok := RouteFromContext(ctx)
	if !ok {
		return nil
	}
	if ring == nil || instanceID == "" {
		return nil
	}
	if info.Epoch != ring.Epoch() {
		return fmt.Errorf("%w: routed epoch %d, instance ring epoch %d", ErrStaleRoute, info.Epoch, ring.Epoch())
	}
	if owner := ring.Owner(info.Key); owner != instanceID {
		return fmt.Errorf("%w: key %q owned by %q, reached %q at epoch %d",
			ErrStaleRoute, info.Key, owner, instanceID, info.Epoch)
	}
	return nil
}

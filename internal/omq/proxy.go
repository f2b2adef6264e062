package omq

import (
	"context"
	"fmt"
	"hash/fnv"
	"time"

	"stacksync/internal/obs"
)

// Defaults for @SyncMethod calls; the paper's SyncService interface uses
// retry = 5, timeout = 1500 ms (Fig. 6). Retries back off exponentially with
// jitter so a herd of clients retrying into a recovering server spreads out
// instead of re-stampeding it.
const (
	DefaultTimeout     = 1500 * time.Millisecond
	DefaultRetries     = 5
	DefaultBackoffBase = 25 * time.Millisecond
	DefaultBackoffMax  = time.Second
)

// Proxy is the dynamic client stub for a remote object id. It is cheap and
// stateless: all state (reply queue, pending calls) lives in the Broker, so
// proxies need no update when server instances come and go — the point of
// indirect communication (§2).
type Proxy struct {
	broker      *Broker
	oid         string
	timeout     time.Duration
	retries     int
	backoffBase time.Duration
	backoffMax  time.Duration
	// retriesTotal counts retry attempts (attempts beyond the first) made by
	// sync calls through this proxy, as a registry series labelled by oid.
	retriesTotal *obs.Counter
}

// CallOption tunes synchronous call behaviour, mirroring the
// @SyncMethod(retry, timeout) decorator parameters.
type CallOption func(*Proxy)

// WithTimeout sets the per-attempt timeout of Call and the collection window
// default of MultiCall.
func WithTimeout(d time.Duration) CallOption {
	return func(p *Proxy) { p.timeout = d }
}

// WithRetries sets how many attempts Call makes before ErrTimeout.
func WithRetries(n int) CallOption {
	return func(p *Proxy) { p.retries = n }
}

// WithBackoff sets the exponential backoff slept between Call attempts: the
// n-th retry waits base<<n (capped at max) scaled by a decorrelating jitter
// factor in [0.5, 1.5) hashed from (broker id, request id, n). Mixing the
// broker identity matters after a server crash: ten clients whose retries
// all fired into the dead instance at once come back spread over a full
// backoff width instead of re-stampeding in lockstep. base <= 0 disables
// backoff (attempts go back-to-back, the pre-hardening behaviour).
func WithBackoff(base, max time.Duration) CallOption {
	return func(p *Proxy) { p.backoffBase, p.backoffMax = base, max }
}

// OID returns the remote object identifier this proxy addresses.
func (p *Proxy) OID() string { return p.oid }

func (p *Proxy) encodeArgs(args []interface{}) ([][]byte, error) {
	return p.broker.encodeArgs(args)
}

// Async performs a one-way @AsyncMethod invocation: the request is published
// to the shared queue of the object id and the call returns as soon as the
// broker accepted it. No response is ever produced.
func (p *Proxy) Async(method string, args ...interface{}) error {
	return p.AsyncCtx(context.Background(), method, args...)
}

// AsyncCtx is Async carrying a context; when the context belongs to a trace
// the publish is recorded as a child span and the trace crosses to the
// handler through the message headers.
func (p *Proxy) AsyncCtx(ctx context.Context, method string, args ...interface{}) error {
	encoded, err := p.encodeArgs(args)
	if err != nil {
		return err
	}
	body, err := encodeRequest(&request{
		Method: method,
		Args:   encoded,
		OneWay: true,
	})
	if err != nil {
		return err
	}
	span, headers := p.broker.startPublishSpan(ctx, "omq.async."+method)
	defer span.End()
	return p.broker.publishH("", p.oid, body, true, headers)
}

// Call performs a blocking @SyncMethod invocation. The reply value is
// decoded into reply (pass nil for methods without a result). Each attempt
// waits up to the configured timeout; after the configured number of
// attempts Call returns ErrTimeout. A remote handler error surfaces as
// *RemoteError.
//
// All attempts carry the same request id, so a server that already executed
// the call (but whose reply was lost) re-acknowledges from its dedup table
// instead of executing again; between attempts Call sleeps an exponentially
// growing, jittered backoff (see WithBackoff).
func (p *Proxy) Call(method string, reply interface{}, args ...interface{}) error {
	return p.CallCtx(context.Background(), method, reply, args...)
}

// CallCtx is Call carrying a context for trace propagation: each attempt is
// recorded as a span (a child of the context's span when present, otherwise
// the root of a fresh trace).
func (p *Proxy) CallCtx(ctx context.Context, method string, reply interface{}, args ...interface{}) error {
	encoded, err := p.encodeArgs(args)
	if err != nil {
		return err
	}
	attempts := p.retries
	if attempts < 1 {
		attempts = 1
	}
	requestID := newID()
	for i := 0; i < attempts; i++ {
		if i > 0 {
			p.retriesTotal.Inc()
			if d := p.backoff(requestID, i-1); d > 0 {
				p.broker.clk.Sleep(d)
			}
		}
		resp, err := p.attempt(ctx, method, encoded, requestID)
		if err == ErrTimeout {
			continue
		}
		if err != nil {
			return err
		}
		if resp.Err != "" {
			return &RemoteError{Method: method, Msg: resp.Err}
		}
		if reply != nil && resp.Result != nil {
			if err := bin.Unmarshal(resp.Result, reply); err != nil {
				return fmt.Errorf("omq: decode reply of %s: %w", method, err)
			}
		}
		return nil
	}
	return fmt.Errorf("omq: %s on %q after %d attempts: %w", method, p.oid, attempts, ErrTimeout)
}

// backoff returns the pause before retry n (0-based); see retryJitter.
func (p *Proxy) backoff(requestID string, n int) time.Duration {
	seed := requestID
	if p.broker != nil {
		seed = p.broker.id + requestID
	}
	return retryJitter(seed, n, p.backoffBase, p.backoffMax)
}

// retryJitter computes the pause before retry n (0-based): base<<n capped at
// max, scaled into [0.5, 1.5) by a decorrelating factor hashed from
// (seed, n). The seed must include a per-caller component (broker id +
// request id) so that clients retrying into the same crashed instance spread
// across the jitter window rather than re-synchronizing — no shared PRNG
// state, so concurrent callers stay deterministic per call. base <= 0
// disables the pause entirely.
func retryJitter(seed string, n int, base, max time.Duration) time.Duration {
	if base <= 0 {
		return 0
	}
	d := base
	for i := 0; i < n && d < max; i++ {
		d *= 2
	}
	if max > 0 && d > max {
		d = max
	}
	h := fnv.New64a()
	_, _ = h.Write([]byte(seed))
	_, _ = h.Write([]byte{byte(n), byte(n >> 8)})
	jitter := 0.5 + float64(h.Sum64()>>11)/float64(uint64(1)<<53)
	return time.Duration(float64(d) * jitter)
}

func (p *Proxy) attempt(ctx context.Context, method string, encoded [][]byte, requestID string) (*response, error) {
	correlationID := newID()
	body, err := encodeRequest(&request{
		Method:        method,
		Args:          encoded,
		CorrelationID: correlationID,
		ReplyTo:       p.broker.replyQueue,
		RequestID:     requestID,
	})
	if err != nil {
		return nil, err
	}
	span, headers := p.broker.startPublishSpan(ctx, "omq.call."+method)
	defer span.End()
	ch := p.broker.registerPending(correlationID, 1)
	defer p.broker.unregisterPending(correlationID)
	if err := p.broker.publishH("", p.oid, body, true, headers); err != nil {
		return nil, err
	}
	select {
	case resp := <-ch:
		return resp, nil
	case <-p.broker.clk.After(p.timeout):
		return nil, ErrTimeout
	}
}

// Multi performs a one-way @MultiMethod+@AsyncMethod invocation: the request
// fans out to the private queue of every instance bound under the object id.
func (p *Proxy) Multi(method string, args ...interface{}) error {
	return p.MultiCtx(context.Background(), method, args...)
}

// MultiCtx is Multi carrying a context for trace propagation. Every
// receiving instance records its dwell and handler spans under the one
// publish span, so a traced notification shows its full fan-out.
func (p *Proxy) MultiCtx(ctx context.Context, method string, args ...interface{}) error {
	encoded, err := p.encodeArgs(args)
	if err != nil {
		return err
	}
	body, err := encodeRequest(&request{
		Method: method,
		Args:   encoded,
		OneWay: true,
	})
	if err != nil {
		return err
	}
	span, headers := p.broker.startPublishSpan(ctx, "omq.multi."+method)
	defer span.End()
	return p.broker.publishH(multiExchange(p.oid), "", body, true, headers)
}

// Reply is one response collected by MultiCall.
type Reply struct {
	// From is the responding broker's identity.
	From string
	// Err carries the remote handler error, if any.
	Err string

	raw []byte
}

// Decode unmarshals the reply payload into v.
func (r *Reply) Decode(v interface{}) error {
	if r.Err != "" {
		return &RemoteError{Msg: r.Err}
	}
	if r.raw == nil {
		return nil
	}
	return bin.Unmarshal(r.raw, v)
}

// MultiCall performs a blocking @MultiMethod+@SyncMethod invocation: the
// request fans out to all instances and replies are collected until the
// window elapses (paper §3.2: "collects the results received from many
// servers in a determined timeout"). The window defaults to the proxy
// timeout when zero.
func (p *Proxy) MultiCall(method string, window time.Duration, args ...interface{}) ([]Reply, error) {
	return p.MultiCallCtx(context.Background(), method, window, args...)
}

// MultiCallCtx is MultiCall carrying a context for trace propagation.
func (p *Proxy) MultiCallCtx(ctx context.Context, method string, window time.Duration, args ...interface{}) ([]Reply, error) {
	if window <= 0 {
		window = p.timeout
	}
	encoded, err := p.encodeArgs(args)
	if err != nil {
		return nil, err
	}
	correlationID := newID()
	body, err := encodeRequest(&request{
		Method:        method,
		Args:          encoded,
		CorrelationID: correlationID,
		ReplyTo:       p.broker.replyQueue,
	})
	if err != nil {
		return nil, err
	}
	span, headers := p.broker.startPublishSpan(ctx, "omq.multicall."+method)
	defer span.End()
	ch := p.broker.registerPending(correlationID, replyPrefetch)
	defer p.broker.unregisterPending(correlationID)
	if err := p.broker.publishH(multiExchange(p.oid), "", body, true, headers); err != nil {
		return nil, err
	}
	var replies []Reply
	deadline := p.broker.clk.After(window)
	for {
		select {
		case resp := <-ch:
			replies = append(replies, Reply{
				From: resp.From,
				Err:  resp.Err,
				raw:  resp.Result,
			})
		case <-deadline:
			return replies, nil
		}
	}
}

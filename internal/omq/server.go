package omq

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"strconv"
	"sync"
	"time"

	"stacksync/internal/mq"
	"stacksync/internal/obs"
)

// BoundObject is a server object registered under an identifier. Its worker
// goroutine consumes the shared unicast queue and the private multicast
// queue, processing one call at a time (the MOM hands each unicast message
// to the first idle instance, giving queue-based load balancing).
type BoundObject struct {
	broker       *Broker
	oid          string
	privateQueue string
	methods      map[string]boundMethod
	uniSub       mq.Subscription
	multiSub     mq.Subscription
	done         chan struct{}
	// dedup remembers recent sync results by request id so a retried
	// @SyncMethod (reply lost, caller timed out) is re-acknowledged instead
	// of executed twice on this instance.
	dedup *dedupCache
	// Registry-backed series, labelled by oid and shared across instances.
	dedupHits    *obs.Counter
	droppedTotal *obs.Counter
	handleHist   *obs.Histogram
	// ownedBroker, when set, is a child broker created solely to host this
	// instance (see RemoteBroker.SpawnLocal); it is closed with the instance.
	ownedBroker *Broker

	mu      sync.Mutex
	count   uint64
	mean    float64 // seconds, Welford running mean
	m2      float64 // Welford sum of squared deviations
	dropped uint64  // one-way calls abandoned after exhausting redeliveries

	stopOnce sync.Once
}

const (
	// dedupCacheSize bounds the per-instance retry-dedup table.
	dedupCacheSize = 512
	// dedupTTL bounds how long a remembered sync outcome stays useful: a
	// retry arriving later than every caller's full retry budget cannot
	// exist, so entries past the TTL are reclaimed even when the table is
	// not full. Long-lived instances under retry storms stay bounded in
	// both directions — size by LRU, age by TTL.
	dedupTTL = 2 * time.Minute
	// maxOneWayRedeliveries bounds how often a failed @AsyncMethod handler
	// requeues its delivery before the call is abandoned.
	maxOneWayRedeliveries = 16
)

// dedupCache is a bounded map from request id to the outcome of its first
// execution, evicting by LRU when full and by TTL as entries age out.
type dedupCache struct {
	mu      sync.Mutex
	entries map[string]*list.Element
	order   *list.List // front = coldest, back = hottest
	cap     int
	ttl     time.Duration
	now     func() time.Time
	// evictions counts entries reclaimed by LRU pressure or TTL expiry
	// (omq_dedup_evictions_total{oid}); nil in bare tests.
	evictions *obs.Counter
}

type dedupEntry struct {
	id      string
	result  []byte
	errMsg  string
	expires time.Time
}

func newDedupCache(cap int, ttl time.Duration, now func() time.Time, evictions *obs.Counter) *dedupCache {
	if now == nil {
		now = time.Now
	}
	return &dedupCache{
		entries:   make(map[string]*list.Element),
		order:     list.New(),
		cap:       cap,
		ttl:       ttl,
		now:       now,
		evictions: evictions,
	}
}

func (c *dedupCache) get(id string) (dedupEntry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[id]
	if !ok {
		return dedupEntry{}, false
	}
	e := el.Value.(*dedupEntry)
	if c.ttl > 0 && c.now().After(e.expires) {
		c.evictLocked(el)
		return dedupEntry{}, false
	}
	c.order.MoveToBack(el)
	return *e, true
}

func (c *dedupCache) put(id string, e dedupEntry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.entries[id]; ok {
		return
	}
	now := c.now()
	// Reclaim expired entries from the cold end first; fall back to plain
	// LRU eviction when the table is still full of live entries.
	for c.ttl > 0 {
		el := c.order.Front()
		if el == nil || !now.After(el.Value.(*dedupEntry).expires) {
			break
		}
		c.evictLocked(el)
	}
	for c.order.Len() >= c.cap {
		c.evictLocked(c.order.Front())
	}
	e.id = id
	e.expires = now.Add(c.ttl)
	c.entries[id] = c.order.PushBack(&e)
}

// len reports the live entry count (tests).
func (c *dedupCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

func (c *dedupCache) evictLocked(el *list.Element) {
	delete(c.entries, el.Value.(*dedupEntry).id)
	c.order.Remove(el)
	if c.evictions != nil {
		c.evictions.Inc()
	}
}

type boundMethod struct {
	fn       reflect.Value
	argTypes []reflect.Type
	// wantsCtx is true when the method's first parameter is a
	// context.Context; the dispatcher supplies one carrying the request's
	// trace context.
	wantsCtx bool
	// hasReply is true when the method returns a value besides error.
	hasReply bool
	// hasErr is true when the method's last return value is an error.
	hasErr bool
}

var (
	errType = reflect.TypeOf((*error)(nil)).Elem()
	ctxType = reflect.TypeOf((*context.Context)(nil)).Elem()
)

// methodTable builds the dispatch table from the exported methods of impl.
// Supported shapes: func(args...) | func(args...) error |
// func(args...) T | func(args...) (T, error); each may additionally take a
// context.Context as its first parameter (not counted as a call argument).
func methodTable(impl interface{}) (map[string]boundMethod, error) {
	v := reflect.ValueOf(impl)
	if !v.IsValid() {
		return nil, errors.New("nil implementation")
	}
	t := v.Type()
	if t.Kind() == reflect.Ptr && v.IsNil() {
		return nil, errors.New("nil implementation")
	}
	methods := make(map[string]boundMethod)
	for i := 0; i < t.NumMethod(); i++ {
		m := t.Method(i)
		mt := m.Type
		bm := boundMethod{fn: v.Method(i)}
		first := 1 // skip receiver
		if mt.NumIn() > 1 && mt.In(1) == ctxType {
			bm.wantsCtx = true
			first = 2
		}
		for a := first; a < mt.NumIn(); a++ {
			bm.argTypes = append(bm.argTypes, mt.In(a))
		}
		switch mt.NumOut() {
		case 0:
		case 1:
			if mt.Out(0) == errType {
				bm.hasErr = true
			} else {
				bm.hasReply = true
			}
		case 2:
			if mt.Out(1) != errType {
				return nil, fmt.Errorf("method %s: second return value must be error", m.Name)
			}
			bm.hasReply = true
			bm.hasErr = true
		default:
			return nil, fmt.Errorf("method %s: too many return values", m.Name)
		}
		methods[m.Name] = bm
	}
	if len(methods) == 0 {
		return nil, errors.New("implementation exports no methods")
	}
	return methods, nil
}

// OID returns the identifier this object is bound under.
func (bo *BoundObject) OID() string { return bo.oid }

// work is the message loop: take a delivery from either queue, execute,
// reply if requested, then ack. Acking after execution is what makes crashed
// instances harmless — the broker redelivers the unacked call elsewhere
// (§3.4).
func (bo *BoundObject) work() {
	uni := bo.uniSub.Deliveries()
	multi := bo.multiSub.Deliveries()
	for uni != nil || multi != nil {
		var (
			d  mq.Delivery
			ok bool
		)
		select {
		case d, ok = <-uni:
			if !ok {
				uni = nil
				continue
			}
		case d, ok = <-multi:
			if !ok {
				multi = nil
				continue
			}
		}
		bo.handle(d)
	}
	close(bo.done)
}

func (bo *BoundObject) handle(d mq.Delivery) {
	req, err := decodeRequest(d.Body)
	if err != nil {
		// Malformed request (or a pre-binary JSON envelope): drop without
		// requeue, it can never succeed.
		_ = d.Nack(false)
		return
	}

	// Retried sync call this instance already executed: re-acknowledge the
	// remembered outcome under the retry's correlation id, don't run twice.
	// (A retry redelivered to a *different* instance is not caught here —
	// that is what idempotent application logic, e.g. the metadata store's
	// commit replay, covers.)
	if !req.OneWay && req.RequestID != "" {
		if e, ok := bo.dedup.get(req.RequestID); ok {
			bo.dedupHits.Inc()
			bo.reply(req, e.result, e.errMsg)
			_ = d.Ack()
			return
		}
	}

	// Trace the receiving side of the hop: the sender's span context rode in
	// on the message headers. Queue dwell is reconstructed from the publish
	// timestamp; the handler execution span wraps invoke, and its context is
	// handed to context-aware methods so they can record deeper spans.
	ctx := context.Background()
	var handleSpan *obs.SpanHandle
	if tr := bo.broker.tracer; tr != nil {
		if ptc, ok := obs.ExtractTraceContext(d.Headers); ok {
			if ns, err := strconv.ParseInt(d.Headers[obs.HeaderPublishNanos], 10, 64); err == nil {
				tr.RecordChild(ptc, "mq.dwell", time.Unix(0, ns), bo.broker.now())
			}
			handleSpan = tr.StartChild(ptc, "omq.handle."+req.Method)
			ctx = obs.ContextWith(ctx, handleSpan.Context())
		}
	}

	start := bo.broker.now()
	result, callErr, permanent := bo.invoke(ctx, req)
	elapsed := bo.broker.now().Sub(start)
	bo.recordServiceTime(elapsed)
	bo.handleHist.ObserveDuration(elapsed)
	handleSpan.End()

	if req.OneWay {
		// @AsyncMethod produces no response even on error (§3.2), but a
		// transient handler failure must not silently lose the call: requeue
		// it (bounded, with a growing pause) so this or another instance
		// retries once the fault passes.
		if callErr != nil && !permanent {
			if d.Redelivered < maxOneWayRedeliveries {
				bo.broker.clk.Sleep(oneWayRetryDelay(bo.broker.id+req.Method, d.Redelivered))
				_ = d.Nack(true)
				return
			}
			bo.mu.Lock()
			bo.dropped++
			bo.mu.Unlock()
			bo.droppedTotal.Inc()
		}
		_ = d.Ack()
		return
	}

	errMsg := ""
	if callErr != nil {
		errMsg = callErr.Error()
	}
	if req.RequestID != "" {
		bo.dedup.put(req.RequestID, dedupEntry{result: result, errMsg: errMsg})
	}
	bo.reply(req, result, errMsg)
	_ = d.Ack()
}

// reply publishes the response envelope for a sync request. A response too
// large for one frame is answered once with the broker's refusal instead,
// so the caller fails at once. If the refusal cannot be sent either (the
// request's own CorrelationID sits near the bound), or any other publish
// fails, the caller's timeout notices.
func (bo *BoundObject) reply(req *request, result []byte, errMsg string) {
	if req.ReplyTo == "" {
		return
	}
	resp := &response{CorrelationID: req.CorrelationID, From: bo.broker.id, Err: errMsg}
	if errMsg == "" {
		resp.Result = result
	}
	err := bo.publishResponse(req.ReplyTo, resp)
	if errors.Is(err, mq.ErrTooLarge) {
		refusal := &response{CorrelationID: req.CorrelationID, From: bo.broker.id, Err: err.Error()}
		_ = bo.publishResponse(req.ReplyTo, refusal)
	}
}

// publishResponse encodes resp and publishes it to the caller's reply queue.
func (bo *BoundObject) publishResponse(replyTo string, resp *response) error {
	body, err := encodeResponse(resp)
	if err != nil {
		return err
	}
	return bo.broker.publish("", replyTo, body, false)
}

// oneWayRetryDelay grows the pause before requeueing a failed one-way call:
// 10ms doubling to a 500ms ceiling, jittered per instance (see retryJitter)
// so a fleet of instances chewing on the same poisoned fan-out desynchronizes
// instead of hammering the dependency in lockstep.
func oneWayRetryDelay(seed string, redelivered int) time.Duration {
	return retryJitter(seed, redelivered, 10*time.Millisecond, 500*time.Millisecond)
}

// Dropped reports one-way calls this instance abandoned after exhausting
// their redelivery budget.
func (bo *BoundObject) Dropped() uint64 {
	bo.mu.Lock()
	defer bo.mu.Unlock()
	return bo.dropped
}

// invoke dispatches req. permanent reports that the failure is structural
// (unknown method, wrong arity, undecodable argument) — retrying the
// identical request can never succeed, unlike a handler error, which may be
// transient.
func (bo *BoundObject) invoke(ctx context.Context, req *request) (result []byte, err error, permanent bool) {
	bm, ok := bo.methods[req.Method]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoMethod, req.Method), true
	}
	if len(req.Args) != len(bm.argTypes) {
		return nil, fmt.Errorf("%w: %s takes %d, got %d", ErrBadArity, req.Method, len(bm.argTypes), len(req.Args)), true
	}
	in := make([]reflect.Value, 0, len(bm.argTypes)+1)
	if bm.wantsCtx {
		in = append(in, reflect.ValueOf(ctx))
	}
	for i, at := range bm.argTypes {
		pv := reflect.New(at)
		if err := bin.Unmarshal(req.Args[i], pv.Interface()); err != nil {
			return nil, fmt.Errorf("omq: decode arg %d of %s: %w", i, req.Method, err), true
		}
		in = append(in, pv.Elem())
	}
	out := bm.fn.Call(in)
	if bm.hasErr {
		if errVal := out[len(out)-1]; !errVal.IsNil() {
			return nil, errVal.Interface().(error), false
		}
	}
	if !bm.hasReply {
		return nil, nil, false
	}
	result, merr := bin.MarshalAppend(nil, out[0].Interface())
	if merr != nil {
		return nil, fmt.Errorf("omq: encode result of %s: %w", req.Method, merr), true
	}
	return result, nil, false
}

func (bo *BoundObject) recordServiceTime(d time.Duration) {
	s := d.Seconds()
	bo.mu.Lock()
	bo.count++
	delta := s - bo.mean
	bo.mean += delta / float64(bo.count)
	bo.m2 += delta * (s - bo.mean)
	bo.mu.Unlock()
}

// ServiceStats summarizes observed per-call processing time.
type ServiceStats struct {
	Count    uint64
	Mean     time.Duration
	Variance float64 // seconds squared
}

// Stats returns the running service-time statistics of this instance.
func (bo *BoundObject) Stats() ServiceStats {
	bo.mu.Lock()
	defer bo.mu.Unlock()
	st := ServiceStats{Count: bo.count}
	st.Mean = time.Duration(bo.mean * float64(time.Second))
	if bo.count > 1 {
		st.Variance = bo.m2 / float64(bo.count-1)
	}
	if math.IsNaN(st.Variance) {
		st.Variance = 0
	}
	return st
}

// Unbind cancels the subscriptions (requeuing any in-flight call for other
// instances), removes the private multicast queue and waits for the worker
// to drain.
func (bo *BoundObject) Unbind() error {
	bo.stop()
	bo.broker.forget(bo.oid, bo)
	return nil
}

func (bo *BoundObject) stop() {
	bo.stopOnce.Do(func() {
		_ = bo.uniSub.Cancel()
		_ = bo.multiSub.Cancel()
		<-bo.done
		_ = bo.broker.mq.UnbindQueue(bo.privateQueue, multiExchange(bo.oid), "")
		_ = bo.broker.mq.DeleteQueue(bo.privateQueue)
	})
}

// Kill emulates an instance crash: subscriptions are cancelled immediately —
// requeueing any unacked in-flight call for other instances (§3.4) — without
// waiting for a handler that may still be executing. The abandoned handler's
// eventual ack fails harmlessly (the delivery was already requeued) and its
// reply, if any, is dropped by the caller's correlation table.
func (bo *BoundObject) Kill() {
	bo.stopOnce.Do(func() {
		_ = bo.uniSub.Cancel()
		_ = bo.multiSub.Cancel()
		_ = bo.broker.mq.UnbindQueue(bo.privateQueue, multiExchange(bo.oid), "")
		_ = bo.broker.mq.DeleteQueue(bo.privateQueue)
	})
	bo.broker.forget(bo.oid, bo)
}

// ObjectInfo is the introspection record provisioning policies consume
// (paper §3.3, HasObjectInfo).
type ObjectInfo struct {
	OID             string        `json:"oid"`
	QueueDepth      int           `json:"queueDepth"`
	Unacked         int           `json:"unacked"`
	Instances       int           `json:"instances"`
	ArrivalRate     float64       `json:"arrivalRate"` // requests/sec at the shared queue
	Enqueued        uint64        `json:"enqueued"`
	Processed       uint64        `json:"processed"`
	MeanServiceTime time.Duration `json:"meanServiceTime"`
	ServiceTimeVar  float64       `json:"serviceTimeVar"` // seconds^2
}

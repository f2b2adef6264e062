package omq

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"time"

	"stacksync/internal/clock"
	"stacksync/internal/mq"
	"stacksync/internal/obs"
)

// replyPrefetch bounds unacked deliveries on the private reply queue.
const replyPrefetch = 64

// Broker is the ObjectMQ endpoint: it binds server objects to identifiers
// and creates proxies for remote ones (paper Fig. 1). One Broker per process
// is typical; each owns a private reply queue for its synchronous calls.
type Broker struct {
	mq     mq.MQ
	clk    clock.Clock
	id     string
	tracer *obs.Tracer
	reg    *obs.Registry
	events *obs.EventLog

	replyQueue string
	replySub   mq.Subscription

	mu      sync.Mutex
	pending map[string]chan *response
	bound   map[string]*BoundObject
	closed  bool

	wg sync.WaitGroup
}

// BrokerOption configures a Broker.
type BrokerOption func(*Broker)

// WithBrokerClock substitutes the time source used for call timeouts and
// service-time measurement.
func WithBrokerClock(c clock.Clock) BrokerOption {
	return func(b *Broker) { b.clk = c }
}

// WithID fixes the broker identity (default: random). Identities order
// leader election (§3.4).
func WithID(id string) BrokerOption {
	return func(b *Broker) { b.id = id }
}

// WithTracer records a span for every hop this broker participates in:
// proxy publishes, queue dwell and handler execution. nil (the default)
// disables tracing at zero cost on the request path.
func WithTracer(t *obs.Tracer) BrokerOption {
	return func(b *Broker) { b.tracer = t }
}

// WithRegistry backs this broker's metric series (queue depth, arrival
// rate, service time, dedup hits, retries) with a shared registry. Without
// it the broker records into a private registry, readable via Registry().
func WithRegistry(r *obs.Registry) BrokerOption {
	return func(b *Broker) { b.reg = r }
}

// WithEventLog wires this broker — and the Supervisor, SupervisorGuard and
// RemoteBroker built on it — to a flight recorder capturing scale actions,
// respawns, leader elections and injected crashes. nil (the default)
// disables recording; obs.EventLog methods are nil-safe.
func WithEventLog(l *obs.EventLog) BrokerOption {
	return func(b *Broker) { b.events = l }
}

// NewBroker connects an ObjectMQ endpoint to a message-queue system.
func NewBroker(m mq.MQ, opts ...BrokerOption) (*Broker, error) {
	b := &Broker{
		mq:      m,
		clk:     clock.NewReal(),
		id:      newID(),
		pending: make(map[string]chan *response),
		bound:   make(map[string]*BoundObject),
	}
	for _, opt := range opts {
		opt(b)
	}
	if b.reg == nil {
		b.reg = obs.NewRegistry()
	}
	b.replyQueue = "omq.reply." + b.id
	if err := m.DeclareQueue(b.replyQueue); err != nil {
		return nil, fmt.Errorf("omq: declare reply queue: %w", err)
	}
	sub, err := m.Subscribe(b.replyQueue, replyPrefetch)
	if err != nil {
		return nil, fmt.Errorf("omq: subscribe reply queue: %w", err)
	}
	b.replySub = sub
	b.wg.Add(1)
	go b.replyLoop()
	return b, nil
}

// ID returns the broker identity.
func (b *Broker) ID() string { return b.id }

// Tracer returns the configured tracer (nil when tracing is disabled).
func (b *Broker) Tracer() *obs.Tracer { return b.tracer }

// Registry returns the metrics registry backing this broker's series.
func (b *Broker) Registry() *obs.Registry { return b.reg }

// EventLog returns the configured flight recorder (nil when disabled).
func (b *Broker) EventLog() *obs.EventLog { return b.events }

func (b *Broker) replyLoop() {
	defer b.wg.Done()
	for d := range b.replySub.Deliveries() {
		resp, err := decodeResponse(d.Body)
		// A failed ack costs at most a redelivered reply, which finds no
		// waiter; dropping a reply that decoded would fail a call that ran.
		_ = d.Ack()
		if err != nil {
			continue
		}
		b.mu.Lock()
		ch, ok := b.pending[resp.CorrelationID]
		b.mu.Unlock()
		if !ok {
			continue // late reply after timeout; drop
		}
		select {
		case ch <- resp:
		default:
			// Collector buffer full (multi-call with very many servers);
			// excess replies are dropped.
		}
	}
}

// registerPending installs a waiter channel for a correlation id.
func (b *Broker) registerPending(correlationID string, buffer int) chan *response {
	ch := make(chan *response, buffer)
	b.mu.Lock()
	b.pending[correlationID] = ch
	b.mu.Unlock()
	return ch
}

func (b *Broker) unregisterPending(correlationID string) {
	b.mu.Lock()
	delete(b.pending, correlationID)
	b.mu.Unlock()
}

// multiExchange names the fanout exchange carrying @MultiMethod calls for an
// object id.
func multiExchange(oid string) string { return oid + ".multi" }

// Bind registers a server object under oid (paper: Broker.bind). The queue
// named oid receives unicast calls shared with every other instance bound to
// the same id; a private queue bound to the oid fanout exchange receives
// multicast calls. The returned BoundObject owns the worker goroutine; call
// its Unbind to release it.
func (b *Broker) Bind(oid string, impl interface{}) (*BoundObject, error) {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return nil, ErrClosed
	}
	if _, dup := b.bound[oid]; dup {
		b.mu.Unlock()
		return nil, fmt.Errorf("omq: bind %q: %w", oid, ErrAlreadyBound)
	}
	b.mu.Unlock()

	methods, err := methodTable(impl)
	if err != nil {
		return nil, fmt.Errorf("omq: bind %q: %w", oid, err)
	}
	if err := b.mq.DeclareQueue(oid); err != nil {
		return nil, fmt.Errorf("omq: bind %q: %w", oid, err)
	}
	if err := b.mq.DeclareExchange(multiExchange(oid), mq.Fanout); err != nil {
		return nil, fmt.Errorf("omq: bind %q: declare multi exchange: %w", oid, err)
	}
	privateQueue := oid + ".multi." + b.id + "." + newID()
	if err := b.mq.DeclareQueue(privateQueue); err != nil {
		return nil, fmt.Errorf("omq: bind %q: declare private queue: %w", oid, err)
	}
	if err := b.mq.BindQueue(privateQueue, multiExchange(oid), ""); err != nil {
		return nil, fmt.Errorf("omq: bind %q: bind private queue: %w", oid, err)
	}
	uniSub, err := b.mq.Subscribe(oid, 1)
	if err != nil {
		return nil, fmt.Errorf("omq: bind %q: subscribe: %w", oid, err)
	}
	multiSub, err := b.mq.Subscribe(privateQueue, 1)
	if err != nil {
		_ = uniSub.Cancel()
		return nil, fmt.Errorf("omq: bind %q: subscribe multi: %w", oid, err)
	}

	bo := &BoundObject{
		broker:       b,
		oid:          oid,
		privateQueue: privateQueue,
		methods:      methods,
		uniSub:       uniSub,
		multiSub:     multiSub,
		done:         make(chan struct{}),
		dedup:        newDedupCache(dedupCacheSize, dedupTTL, b.now, b.reg.Counter("omq_dedup_evictions_total", "oid", oid)),
		dedupHits:    b.reg.Counter("omq_dedup_hits_total", "oid", oid),
		droppedTotal: b.reg.Counter("omq_oneway_dropped_total", "oid", oid),
		handleHist:   b.reg.Histogram("omq_handle_seconds", "oid", oid),
	}
	b.registerObjectSeries(oid, bo)
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		_ = uniSub.Cancel()
		_ = multiSub.Cancel()
		return nil, ErrClosed
	}
	b.bound[oid] = bo
	b.mu.Unlock()

	b.wg.Add(1)
	go func() {
		defer b.wg.Done()
		bo.work()
	}()
	return bo, nil
}

// EnsureMulticastGroup declares the fanout exchange for oid so that Multi
// publications succeed (and silently drop) even before any instance binds.
// The SyncService uses this for workspace notification groups.
func (b *Broker) EnsureMulticastGroup(oid string) error {
	return b.mq.DeclareExchange(multiExchange(oid), mq.Fanout)
}

// Lookup returns a proxy for the object bound under oid (paper:
// Broker.lookup). No registry is consulted: the queue name is the address.
func (b *Broker) Lookup(oid string, opts ...CallOption) *Proxy {
	p := &Proxy{
		broker:       b,
		oid:          oid,
		timeout:      DefaultTimeout,
		retries:      DefaultRetries,
		backoffBase:  DefaultBackoffBase,
		backoffMax:   DefaultBackoffMax,
		retriesTotal: b.reg.Counter("omq_retry_attempts_total", "oid", oid),
	}
	for _, opt := range opts {
		opt(p)
	}
	return p
}

// Bound reports the object ids currently served by this broker.
func (b *Broker) Bound() []string {
	b.mu.Lock()
	defer b.mu.Unlock()
	oids := make([]string, 0, len(b.bound))
	for oid := range b.bound {
		oids = append(oids, oid)
	}
	return oids
}

// unbindLocked detaches bookkeeping; called from BoundObject.Unbind.
func (b *Broker) forget(oid string, bo *BoundObject) {
	b.mu.Lock()
	if b.bound[oid] == bo {
		delete(b.bound, oid)
	}
	b.mu.Unlock()
	b.reg.Unregister("omq_service_mean_seconds", "oid", oid, "instance", b.id)
}

// registerObjectSeries exposes the introspection data of the oid's queue —
// the same numbers ObjectInfo assembles for the provisioner — as registry
// series. Queue-scoped gauges are lazy (evaluated at scrape time) and shared
// by every instance of the oid, so they stay registered when one instance
// unbinds; the per-instance service-time gauge is removed with its instance.
func (b *Broker) registerObjectSeries(oid string, bo *BoundObject) {
	queueGauge := func(read func(mq.QueueStats) float64) func() float64 {
		return func() float64 {
			stats, err := b.mq.QueueStats(oid)
			if err != nil {
				return 0
			}
			return read(stats)
		}
	}
	b.reg.GaugeFunc("omq_queue_depth", queueGauge(func(s mq.QueueStats) float64 { return float64(s.Depth) }), "oid", oid)
	b.reg.GaugeFunc("omq_queue_unacked", queueGauge(func(s mq.QueueStats) float64 { return float64(s.Unacked) }), "oid", oid)
	b.reg.GaugeFunc("omq_queue_consumers", queueGauge(func(s mq.QueueStats) float64 { return float64(s.Consumers) }), "oid", oid)
	b.reg.GaugeFunc("omq_arrival_rate", queueGauge(func(s mq.QueueStats) float64 { return s.ArrivalRate }), "oid", oid)
	b.reg.GaugeFunc("omq_service_mean_seconds", func() float64 {
		return bo.Stats().Mean.Seconds()
	}, "oid", oid, "instance", b.id)
}

// ObjectInfo assembles the introspection snapshot provisioners consume
// (paper: HasObjectInfo). Queue metrics come from the MQ layer; service-time
// metrics from the locally bound instance when present.
func (b *Broker) ObjectInfo(oid string) (ObjectInfo, error) {
	stats, err := b.mq.QueueStats(oid)
	if err != nil {
		return ObjectInfo{}, fmt.Errorf("omq: object info %q: %w", oid, err)
	}
	info := ObjectInfo{
		OID:         oid,
		QueueDepth:  stats.Depth,
		Unacked:     stats.Unacked,
		Instances:   stats.Consumers,
		ArrivalRate: stats.ArrivalRate,
		Enqueued:    stats.Enqueued,
		Processed:   stats.Acked,
	}
	b.mu.Lock()
	bo := b.bound[oid]
	b.mu.Unlock()
	if bo != nil {
		st := bo.Stats()
		info.MeanServiceTime = st.Mean
		info.ServiceTimeVar = st.Variance
	}
	return info, nil
}

// Close unbinds every object and stops the reply loop. Outstanding sync
// calls fail with ErrTimeout when their deadline passes.
func (b *Broker) Close() error {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return nil
	}
	b.closed = true
	bound := make([]*BoundObject, 0, len(b.bound))
	for _, bo := range b.bound {
		bound = append(bound, bo)
	}
	b.bound = map[string]*BoundObject{}
	b.mu.Unlock()
	for _, bo := range bound {
		bo.stop()
		b.reg.Unregister("omq_service_mean_seconds", "oid", bo.oid, "instance", b.id)
	}
	_ = b.replySub.Cancel()
	b.wg.Wait()
	// Best effort: remove the private reply queue from the broker topology.
	_ = b.mq.DeleteQueue(b.replyQueue)
	return nil
}

// encodeArgs marshals an argument list. All arguments share one backing
// buffer (each slice three-index capped, so a growth for a later argument
// can never scribble over an earlier one) — one allocation for the whole
// list instead of one per argument.
func (b *Broker) encodeArgs(args []interface{}) ([][]byte, error) {
	if len(args) == 0 {
		return nil, nil
	}
	encoded := make([][]byte, len(args))
	var buf []byte
	for i, a := range args {
		start := len(buf)
		var err error
		buf, err = bin.MarshalAppend(buf, a)
		if err != nil {
			return nil, fmt.Errorf("omq: encode arg %d: %w", i, err)
		}
		encoded[i] = buf[start:len(buf):len(buf)]
	}
	return encoded, nil
}

// startPublishSpan opens the span covering one publish and builds the
// headers that carry its context (plus the publish timestamp for the
// receiver's queue-dwell span). When the calling context is not part of a
// trace the publish starts a fresh one, so server-initiated flows (health
// multicalls, notifications) are traced too. With tracing disabled the span
// and the headers are nil: no per-message allocation on the untraced hot
// path. A traced publish gets a fresh map, owned by the caller.
func (b *Broker) startPublishSpan(ctx context.Context, name string) (*obs.SpanHandle, map[string]string) {
	tr := b.tracer
	if tr == nil {
		return nil, nil
	}
	var h *obs.SpanHandle
	if tc := obs.FromContext(ctx); tc.Valid() {
		h = tr.StartChild(tc, name)
	} else {
		h = tr.StartRoot(name)
	}
	headers := make(map[string]string, 4)
	h.Context().Inject(headers)
	headers[obs.HeaderPublishNanos] = strconv.FormatInt(b.now().UnixNano(), 10)
	return h, headers
}

// MultiPub is one one-way multicast invocation in a batch: what
// Proxy.MultiCtx would publish, held as data so many can go out together.
type MultiPub struct {
	// Ctx carries the trace the publish span joins (nil = background).
	Ctx    context.Context
	OID    string
	Method string
	Args   []interface{}
}

// PublishMultiBatch fans out a batch of one-way multicasts in a single MQ
// round-trip — mq.PublishAll routes the whole batch under one broker lock
// when the transport supports it. Each entry keeps its own publish span and
// trace headers, so a traced notification looks exactly as if MultiCtx had
// run for it alone. Entries fail independently; the joined error reports
// every failure.
func (b *Broker) PublishMultiBatch(pubs []MultiPub) error {
	var errs []error
	msgs := make([]mq.Publication, 0, len(pubs))
	spans := make([]*obs.SpanHandle, 0, len(pubs))
	for _, p := range pubs {
		encoded, err := b.encodeArgs(p.Args)
		if err != nil {
			errs = append(errs, err)
			continue
		}
		body, err := encodeRequest(&request{
			Method: p.Method,
			Args:   encoded,
			OneWay: true,
		})
		if err != nil {
			errs = append(errs, err)
			continue
		}
		ctx := p.Ctx
		if ctx == nil {
			ctx = context.Background()
		}
		// The trace-header map from startPublishSpan is used directly (nil
		// when tracing is off): one fewer map allocation per message on the
		// notification fan-out hot path.
		span, headers := b.startPublishSpan(ctx, "omq.multi."+p.Method)
		spans = append(spans, span)
		msgs = append(msgs, mq.Publication{
			Exchange: multiExchange(p.OID),
			Message:  mq.Message{Headers: headers, Body: body, Persistent: true},
		})
	}
	if len(msgs) > 0 {
		if err := mq.PublishAll(b.mq, msgs); err != nil {
			errs = append(errs, err)
		}
	}
	for _, s := range spans {
		s.End()
	}
	return errors.Join(errs...)
}

// publish sends raw bytes to a queue (exchange "") or an exchange.
func (b *Broker) publish(exchangeName, key string, body []byte, persistent bool) error {
	return b.publishH(exchangeName, key, body, persistent, nil)
}

// publishH is publish with extra message headers (trace propagation). The
// map is attached as-is, never copied: callers hand over ownership, and
// consumers only ever read Message.Headers. With tracing disabled extra is
// nil and the hot path publishes with no per-message header-map allocation
// at all.
func (b *Broker) publishH(exchangeName, key string, body []byte, persistent bool, extra map[string]string) error {
	return b.mq.Publish(exchangeName, key, mq.Message{
		Headers:    extra,
		Body:       body,
		Persistent: persistent,
	})
}

// now is a small indirection for tests.
func (b *Broker) now() time.Time { return b.clk.Now() }

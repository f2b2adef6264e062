package mq

import (
	"errors"
	"fmt"
	"strconv"
	"sync"
	"time"

	"stacksync/internal/clock"
)

// Broker is the in-process message broker. A single mutex guards all state:
// at the scale of this reproduction (tens of thousands of messages per
// second) lock contention is negligible and the simplicity buys easy
// correctness for the redelivery and round-robin invariants.
type Broker struct {
	mu        sync.Mutex
	queues    map[string]*queue
	exchanges map[string]*exchange
	journal   *Journal
	clk       clock.Clock
	nextTag   uint64
	closed    bool
	// seq numbers every publish. It names generated message ids and is the
	// journal's LSN, so recovery restores it and neither repeats across
	// restarts. nextQueueID numbers queues for the journal the same way.
	seq         uint64
	nextQueueID uint64
	// Scratch space reused under b.mu to keep the hot publish path
	// allocation-free: idBuf builds generated message IDs, routeScratch
	// holds routing targets between routeLocked and its caller.
	idBuf        []byte
	routeScratch []*queue
	// wakes collects what the deliveries made under b.mu asked to be woken;
	// unlock calls each once the mutex is released.
	wakes []func()
}

var _ MQ = (*Broker)(nil)

type exchange struct {
	kind ExchangeKind
	// bindings maps binding key -> queue name -> queue. Fanout exchanges use
	// the empty key for all bindings. Holding the *queue directly keeps the
	// routing hot path to one map walk; DeleteQueue scrubs entries so the
	// pointers never dangle.
	bindings map[string]map[string]*queue
}

type queuedMsg struct {
	msg         Message
	redelivered int
	lsn         uint64 // the journal's name for msg; 0 if it is not journalled
}

type inflightMsg struct {
	qm       queuedMsg
	consumer *consumer
}

type queue struct {
	name      string
	id        uint64  // stands for name in journal records
	pending   msgRing // backlog deque, front = next to dispatch
	consumers []*consumer
	rr        int
	unacked   map[uint64]inflightMsg

	enqueued    uint64
	acked       uint64
	redelivered uint64
	arrivals    rateCounter
}

// A consumer is a deliver function with credit. deliver runs under b.mu,
// so it must neither block nor call the broker; a non-nil result is called
// once b.mu is released (how a network connection learns it has frames to
// write). stop, if set, runs under b.mu when the consumer is cancelled.
type consumer struct {
	queue     *queue
	deliver   func(Delivery) (wake func())
	stop      func()
	prefetch  int
	inflight  int
	cancelled bool
}

// cancel marks c cancelled and stops it. Caller holds b.mu.
func (c *consumer) cancel() {
	c.cancelled = true
	if c.stop != nil {
		c.stop()
	}
}

// BrokerOption configures a Broker.
type BrokerOption func(*Broker)

// WithClock substitutes the time source (used by virtual-time experiments).
func WithClock(c clock.Clock) BrokerOption {
	return func(b *Broker) { b.clk = c }
}

// NewBroker returns an empty broker ready for declarations.
func NewBroker(opts ...BrokerOption) *Broker {
	b := &Broker{
		queues:    make(map[string]*queue),
		exchanges: make(map[string]*exchange),
		clk:       clock.NewReal(),
	}
	for _, opt := range opts {
		opt(b)
	}
	return b
}

// journalled runs one change — a declaration or a publish — under the
// mutex; its journal record is in the file when the change returns.
func (b *Broker) journalled(change func() error) error {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return ErrClosed
	}
	err := change()
	b.unlock()
	return err
}

// DeclareQueue creates the named queue. Declaring an existing queue is a
// no-op, which lets many server objects bind to the same identifier (§3).
func (b *Broker) DeclareQueue(name string) error {
	return b.journalled(func() error {
		if _, ok := b.queues[name]; ok {
			return nil
		}
		q := b.addQueueLocked(name)
		return b.journal.record(recDeclareQueue, q.id, 0, name)
	})
}

func (b *Broker) addQueueLocked(name string) *queue {
	b.nextQueueID++
	q := &queue{
		name:    name,
		id:      b.nextQueueID,
		unacked: make(map[uint64]inflightMsg),
	}
	b.queues[name] = q
	return q
}

// msgRing is a growable ring deque of queuedMsg values. It replaces the
// former container/list backlog: pushes reuse ring slots instead of
// allocating a node (plus a boxed message) per publish, which was most of
// the publish path's allocation budget.
type msgRing struct {
	buf  []queuedMsg
	head int // index of the front element
	n    int
}

func (r *msgRing) Len() int { return r.n }

// grow doubles the ring. Only called when full, so the live elements are
// exactly buf[head:] followed by buf[:head] — two memmoves, no per-element
// index math.
func (r *msgRing) grow() {
	newCap := 32
	if len(r.buf) > 0 {
		newCap = len(r.buf) * 2
	}
	nb := make([]queuedMsg, newCap)
	n := copy(nb, r.buf[r.head:])
	copy(nb[n:], r.buf[:r.head])
	r.buf = nb
	r.head = 0
}

func (r *msgRing) PushBack(m queuedMsg) {
	if r.n == len(r.buf) {
		r.grow()
	}
	i := r.head + r.n
	if i >= len(r.buf) {
		i -= len(r.buf)
	}
	r.buf[i] = m
	r.n++
}

func (r *msgRing) PushFront(m queuedMsg) {
	if r.n == len(r.buf) {
		r.grow()
	}
	r.head--
	if r.head < 0 {
		r.head = len(r.buf) - 1
	}
	r.buf[r.head] = m
	r.n++
}

func (r *msgRing) PopFront() queuedMsg {
	m := r.buf[r.head]
	r.buf[r.head] = queuedMsg{} // drop body/header references for GC
	r.head++
	if r.head == len(r.buf) {
		r.head = 0
	}
	r.n--
	return m
}

// DeleteQueue removes the queue, dropping pending messages and cancelling
// its consumers (a Subscribe channel closes).
func (b *Broker) DeleteQueue(name string) error {
	return b.journalled(func() error {
		q, ok := b.queues[name]
		if !ok {
			return ErrQueueNotFound
		}
		for _, c := range q.consumers {
			if !c.cancelled {
				c.cancel()
			}
		}
		delete(b.queues, name)
		for _, ex := range b.exchanges {
			for _, set := range ex.bindings {
				delete(set, name)
			}
		}
		return b.journal.record(recDeleteQueue, q.id, 0)
	})
}

// DeclareExchange creates an exchange. Re-declaring with the same kind is a
// no-op; with a different kind it fails.
func (b *Broker) DeclareExchange(name string, kind ExchangeKind) error {
	return b.journalled(func() error {
		if ex, ok := b.exchanges[name]; ok {
			if ex.kind != kind {
				return ErrExchangeExists
			}
			return nil
		}
		b.exchanges[name] = &exchange{kind: kind, bindings: make(map[string]map[string]*queue)}
		return b.journal.record(recDeclareExchange, uint64(kind), 0, name)
	})
}

// BindQueue binds a queue to an exchange under a key. For fanout exchanges
// the key is ignored (normalized to "").
func (b *Broker) BindQueue(queueName, exchangeName, key string) error {
	return b.journalled(func() error {
		ex, ok := b.exchanges[exchangeName]
		if !ok {
			return ErrNoExchange
		}
		q, ok := b.queues[queueName]
		if !ok {
			return ErrQueueNotFound
		}
		if ex.kind == Fanout {
			key = ""
		}
		set, ok := ex.bindings[key]
		if !ok {
			set = make(map[string]*queue)
			ex.bindings[key] = set
		}
		set[queueName] = q
		return b.journal.record(recBind, q.id, 0, exchangeName, key)
	})
}

// UnbindQueue removes a binding; unknown bindings are ignored.
func (b *Broker) UnbindQueue(queueName, exchangeName, key string) error {
	return b.journalled(func() error {
		ex, ok := b.exchanges[exchangeName]
		if !ok {
			return ErrNoExchange
		}
		if ex.kind == Fanout {
			key = ""
		}
		q, bound := ex.bindings[key][queueName]
		if !bound {
			return nil
		}
		delete(ex.bindings[key], queueName)
		return b.journal.record(recUnbind, q.id, 0, exchangeName, key)
	})
}

// Publish routes a message. The empty exchange is the AMQP default exchange:
// it routes directly to the queue named by the routing key. A persistent
// message is in the journal file when Publish returns nil. If storing it
// failed, Publish returns the error and the message is not delivered; the
// failure is sticky, so every later persistent publish is refused too.
func (b *Broker) Publish(exchangeName, key string, msg Message) error {
	return b.journalled(func() error {
		return b.publishLocked(exchangeName, key, msg, b.clk.Now())
	})
}

// PublishBatch routes a whole batch under one lock acquisition — the
// batching half of the pipelined notification fanout. Each publication
// succeeds or fails independently; the joined error reports the failures.
func (b *Broker) PublishBatch(pubs []Publication) error {
	return b.journalled(func() error {
		var errs []error
		now := b.clk.Now() // one clock read for the whole batch
		for _, p := range pubs {
			if err := b.publishLocked(p.Exchange, p.Key, p.Message, now); err != nil {
				errs = append(errs, err)
			}
		}
		return errors.Join(errs...)
	})
}

// publishLocked routes msg and appends its one journal record — before any
// consumer can see the message, so the record of an ack always follows it.
func (b *Broker) publishLocked(exchangeName, key string, msg Message, now time.Time) error {
	if err := checkFits(&msg); err != nil {
		return err
	}
	b.seq++
	if msg.ID == "" {
		b.idBuf = strconv.AppendUint(append(b.idBuf[:0], 'm'), b.seq, 10)
		msg.ID = string(b.idBuf)
	}
	targets, err := b.routeLocked(exchangeName, key)
	if err != nil {
		return err
	}
	qm := queuedMsg{msg: msg}
	if b.journal != nil && msg.Persistent && len(targets) > 0 {
		qm.lsn = b.seq
		if err := b.journal.publish(qm.lsn, targets, &qm.msg); err != nil {
			return err // a journal that has failed takes no more messages
		}
	}
	for _, q := range targets {
		q.pending.PushBack(qm)
		q.enqueued++
		q.arrivals.add(now)
		b.dispatchLocked(q)
	}
	return nil
}

// routeLocked resolves a publish to its target queues. The returned slice
// is b.routeScratch: valid only until the next routeLocked call, which is
// safe because b.mu serializes publishes and callers never retain it.
func (b *Broker) routeLocked(exchangeName, key string) ([]*queue, error) {
	targets := b.routeScratch[:0]
	if exchangeName == "" {
		q, ok := b.queues[key]
		if !ok {
			return nil, fmt.Errorf("mq: publish to %q: %w", key, ErrQueueNotFound)
		}
		targets = append(targets, q)
		b.routeScratch = targets
		return targets, nil
	}
	ex, ok := b.exchanges[exchangeName]
	if !ok {
		return nil, ErrNoExchange
	}
	if ex.kind == Fanout {
		key = ""
	}
	for _, q := range ex.bindings[key] {
		targets = append(targets, q)
	}
	b.routeScratch = targets
	return targets, nil
}

// Subscribe registers a consumer with the given prefetch (max unacked
// deliveries in flight to this consumer; must be >= 1). Its deliveries
// arrive on a channel whose buffer equals the prefetch, so the deliver
// function's send never blocks: inflight < prefetch is checked first.
func (b *Broker) Subscribe(queueName string, prefetch int) (Subscription, error) {
	if prefetch < 1 {
		return nil, ErrBadPrefetch
	}
	ch := make(chan Delivery, prefetch)
	c, err := b.subscribe(queueName, prefetch,
		func(d Delivery) func() { ch <- d; return nil },
		func() { close(ch) })
	if err != nil {
		return nil, err
	}
	return &brokerSubscription{b: b, c: c, ch: ch}, nil
}

// subscribe registers deliver (and stop, see consumer) as a consumer of
// the named queue and hands it what the queue holds, up to its prefetch.
func (b *Broker) subscribe(queueName string, prefetch int, deliver func(Delivery) func(), stop func()) (*consumer, error) {
	if prefetch < 1 {
		return nil, ErrBadPrefetch
	}
	b.mu.Lock()
	defer b.unlock()
	if b.closed {
		return nil, ErrClosed
	}
	q, ok := b.queues[queueName]
	if !ok {
		return nil, ErrQueueNotFound
	}
	c := &consumer{queue: q, deliver: deliver, stop: stop, prefetch: prefetch}
	q.consumers = append(q.consumers, c)
	b.dispatchLocked(q)
	return c, nil
}

// dispatchLocked moves pending messages to consumers with free credit,
// round-robin. Caller holds b.mu and releases it with unlock, which wakes
// whatever the deliveries asked for.
func (b *Broker) dispatchLocked(q *queue) {
	for q.pending.Len() > 0 {
		c := q.nextFreeConsumer()
		if c == nil {
			return
		}
		qm := q.pending.PopFront()
		b.nextTag++
		tag := b.nextTag
		q.unacked[tag] = inflightMsg{qm: qm, consumer: c}
		c.inflight++
		if qm.redelivered > 0 {
			q.redelivered++
		}
		wake := c.deliver(Delivery{
			Message:     qm.msg,
			Queue:       q.name,
			Tag:         tag,
			Redelivered: qm.redelivered,
			settle:      b.settleFunc(q.name, tag),
		})
		if wake != nil {
			b.wakes = append(b.wakes, wake)
		}
	}
}

// unlock releases b.mu, then calls the wakes the deliveries made under it
// asked for. Waking after the unlock lets a whole fan-out queue up before
// any connection's writer runs, and keeps writers off b.mu.
func (b *Broker) unlock() {
	if len(b.wakes) == 0 {
		b.mu.Unlock()
		return
	}
	var buf [8]func()
	wakes := append(buf[:0], b.wakes...)
	clear(b.wakes)
	b.wakes = b.wakes[:0]
	b.mu.Unlock()
	for _, wake := range wakes {
		wake()
	}
}

func (q *queue) nextFreeConsumer() *consumer {
	n := len(q.consumers)
	for i := 0; i < n; i++ {
		c := q.consumers[(q.rr+i)%n]
		if !c.cancelled && c.inflight < c.prefetch {
			q.rr = (q.rr + i + 1) % n
			return c
		}
	}
	return nil
}

func (b *Broker) settleFunc(queueName string, tag uint64) func(ack, requeue bool) error {
	return func(ack, requeue bool) error {
		b.mu.Lock()
		err := b.settleLocked(queueName, tag, ack, requeue)
		b.unlock()
		return err
	}
}

func (b *Broker) settleLocked(queueName string, tag uint64, ack, requeue bool) error {
	if b.closed {
		return ErrClosed
	}
	q, ok := b.queues[queueName]
	if !ok {
		return ErrQueueNotFound
	}
	inflight, ok := q.unacked[tag]
	if !ok {
		return ErrAlreadySettled
	}
	delete(q.unacked, tag)
	inflight.consumer.inflight--
	if requeue && !ack {
		inflight.qm.redelivered++
		q.pending.PushFront(inflight.qm)
	} else {
		// Acked or dropped: either way the message is consumed, and its
		// record is in the file when the settle returns. If the journal
		// has failed the record is lost, which costs one redelivery.
		if ack {
			q.acked++
		}
		if inflight.qm.lsn != 0 {
			_ = b.journal.record(recAck, q.id, inflight.qm.lsn)
		}
	}
	b.dispatchLocked(q)
	return nil
}

// QueueStats returns an introspection snapshot of the named queue.
func (b *Broker) QueueStats(name string) (QueueStats, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return QueueStats{}, ErrClosed
	}
	q, ok := b.queues[name]
	if !ok {
		return QueueStats{}, ErrQueueNotFound
	}
	active := 0
	for _, c := range q.consumers {
		if !c.cancelled {
			active++
		}
	}
	return QueueStats{
		Name:        name,
		Depth:       q.pending.Len(),
		Unacked:     len(q.unacked),
		Consumers:   active,
		Enqueued:    q.enqueued,
		Acked:       q.acked,
		Redelivered: q.redelivered,
		ArrivalRate: q.arrivals.rate(b.clk.Now()),
	}, nil
}

// Queues lists the declared queue names (for the supervisor UI and tests).
func (b *Broker) Queues() []string {
	b.mu.Lock()
	defer b.mu.Unlock()
	names := make([]string, 0, len(b.queues))
	for name := range b.queues {
		names = append(names, name)
	}
	return names
}

// Close shuts the broker down, cancelling every consumer. Pending
// persistent messages remain in the journal for recovery.
func (b *Broker) Close() error {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return nil
	}
	b.closed = true
	for _, q := range b.queues {
		for _, c := range q.consumers {
			if !c.cancelled {
				c.cancel()
			}
		}
	}
	b.mu.Unlock()
	return b.journal.Close()
}

type brokerSubscription struct {
	b  *Broker
	c  *consumer
	ch chan Delivery
}

var _ Subscription = (*brokerSubscription)(nil)

func (s *brokerSubscription) Deliveries() <-chan Delivery { return s.ch }

// Cancel unregisters the consumer. Its unacked messages return to the front
// of the queue (in tag order) so another instance picks them up — this is
// the §3.4 crash-redelivery behaviour.
func (s *brokerSubscription) Cancel() error { return s.b.cancel(s.c) }

// cancel unregisters c and requeues its unacked deliveries; see
// brokerSubscription.Cancel.
func (b *Broker) cancel(c *consumer) error {
	b.mu.Lock()
	if c.cancelled {
		b.mu.Unlock()
		return nil
	}
	c.cancel()
	q := c.queue
	// Collect this consumer's unacked deliveries sorted by tag so the
	// original order is preserved when pushed back to the front.
	var tags []uint64
	for tag, inflight := range q.unacked {
		if inflight.consumer == c {
			tags = append(tags, tag)
		}
	}
	sortTags(tags)
	for i := len(tags) - 1; i >= 0; i-- {
		inflight := q.unacked[tags[i]]
		delete(q.unacked, tags[i])
		inflight.qm.redelivered++
		q.pending.PushFront(inflight.qm)
	}
	c.inflight = 0
	// Drop the consumer from the queue's list.
	for i, other := range q.consumers {
		if other == c {
			q.consumers = append(q.consumers[:i], q.consumers[i+1:]...)
			break
		}
	}
	if q.rr >= len(q.consumers) {
		q.rr = 0
	}
	if !b.closed {
		b.dispatchLocked(q)
	}
	b.unlock()
	return nil
}

func sortTags(tags []uint64) {
	for i := 1; i < len(tags); i++ {
		for j := i; j > 0 && tags[j] < tags[j-1]; j-- {
			tags[j], tags[j-1] = tags[j-1], tags[j]
		}
	}
}

// rateCounter tracks arrivals in one-second buckets over rateWindow.
type rateCounter struct {
	buckets [60]uint32
	seconds [60]int64
}

func (r *rateCounter) add(now time.Time) {
	sec := now.Unix()
	i := int(((sec % 60) + 60) % 60)
	if r.seconds[i] != sec {
		r.seconds[i] = sec
		r.buckets[i] = 0
	}
	r.buckets[i]++
}

func (r *rateCounter) rate(now time.Time) float64 {
	sec := now.Unix()
	var total uint64
	for i := 0; i < 60; i++ {
		if sec-r.seconds[i] < int64(rateWindow/time.Second) && r.seconds[i] <= sec {
			total += uint64(r.buckets[i])
		}
	}
	return float64(total) / rateWindow.Seconds()
}

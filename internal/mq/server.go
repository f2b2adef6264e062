package mq

import (
	"fmt"
	"log"
	"net"
	"sync"
	"sync/atomic"

	"stacksync/internal/codec"
	"stacksync/internal/obs"
	"stacksync/internal/wire"
)

// Server exposes a Broker over TCP using the wire protocol, playing the role
// of the RabbitMQ daemon in the paper's testbed. Each connection multiplexes
// requests and delivery streams for any number of consumers, and sends
// everything through one outbound queue that its writer empties with one
// scatter/gather write per wake (DESIGN §17).
type Server struct {
	broker *Broker
	ln     net.Listener

	mu        sync.Mutex
	conns     map[*serverConn]struct{}
	wg        sync.WaitGroup
	done      chan struct{}
	closeOnce sync.Once

	// writes counts the connection writes that succeeded, frames the frames
	// they carried: frames/writes is how many frames one write coalesces.
	writes, frames atomic.Uint64
}

// NewServer starts serving broker on the given address ("127.0.0.1:0" picks
// a free port). Callers stop it with Close.
func NewServer(broker *Broker, addr string) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("mq: listen %s: %w", addr, err)
	}
	s := &Server{
		broker: broker,
		ln:     ln,
		conns:  make(map[*serverConn]struct{}),
		done:   make(chan struct{}),
	}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the listening address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Register exposes the write counters on reg as mq_server_writes_total and
// mq_server_frames_total.
func (s *Server) Register(reg *obs.Registry) {
	reg.GaugeFunc("mq_server_writes_total", func() float64 { return float64(s.writes.Load()) })
	reg.GaugeFunc("mq_server_frames_total", func() float64 { return float64(s.frames.Load()) })
}

// Close stops accepting, closes all connections and waits for handlers.
// It does not close the underlying broker.
func (s *Server) Close() error {
	var err error
	s.closeOnce.Do(func() {
		close(s.done)
		err = s.ln.Close()
		s.mu.Lock()
		for c := range s.conns {
			_ = c.conn.Close()
		}
		s.mu.Unlock()
		s.wg.Wait()
	})
	return err
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			select {
			case <-s.done:
				return
			default:
				log.Printf("mq server: accept: %v", err)
				return
			}
		}
		sc := &serverConn{
			srv:       s,
			conn:      conn,
			subs:      make(map[string]*consumer),
			unsettled: make(map[uint64]Delivery),
		}
		sc.out.init()
		s.mu.Lock()
		s.conns[sc] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			sc.serve()
			s.mu.Lock()
			delete(s.conns, sc)
			s.mu.Unlock()
		}()
	}
}

type serverConn struct {
	srv  *Server
	conn net.Conn
	out  outbox

	mu        sync.Mutex
	subs      map[string]*consumer
	unsettled map[uint64]Delivery
}

// outbox is a connection's one outbound queue: replies and deliveries alike,
// in the order they are sent. A delivery is queued under the broker's mutex
// and its wake runs after the broker releases it, so a fan-out's deliveries
// to one connection queue up before the writer runs and leave in one write.
// Lock order: Broker.mu → serverConn.mu → outbox.mu; no broker call is made
// under either of the last two. The queue has no cap: each consumer's
// prefetch bounds its deliveries, and the read loop queues one reply per
// request.
type outbox struct {
	mu     sync.Mutex
	frames []wire.Frame
	woken  bool // a wake is owed or pending since the writer last took frames
	kick   chan struct{}
	stop   chan struct{}
	done   chan struct{}
	wake   func() // kicks the writer; allocated once
}

func (o *outbox) init() {
	o.kick, o.stop, o.done = make(chan struct{}, 1), make(chan struct{}), make(chan struct{})
	o.wake = func() {
		select {
		case o.kick <- struct{}{}:
		default:
		}
	}
}

// push queues f. It returns the writer's wake for the caller to call when
// the queue was idle, and nil when a wake is already owed.
func (o *outbox) push(f wire.Frame) (wake func()) {
	o.mu.Lock()
	o.frames = append(o.frames, f)
	idle := !o.woken
	o.woken = true
	o.mu.Unlock()
	if idle {
		return o.wake
	}
	return nil
}

// take swaps the queued frames for spare (emptied) and clears the owed wake.
func (o *outbox) take(spare []wire.Frame) []wire.Frame {
	o.mu.Lock()
	batch := o.frames
	o.frames = spare[:0]
	o.woken = false
	o.mu.Unlock()
	return batch
}

func (c *serverConn) serve() {
	go func() {
		c.writeLoop()
		// Closed only once writeLoop has returned, so no writer frame
		// outlives Server.Close.
		close(c.out.done)
	}()
	defer c.cleanup()
	r := wire.NewReader(c.conn)
	for {
		f, err := r.Read()
		if err != nil {
			return // connection gone; cleanup requeues unacked
		}
		if err := c.handle(f); err != nil {
			c.reply(wire.Frame{Op: wire.OpError, Seq: f.Seq, Err: err.Error()})
		}
	}
}

// writeLoop sends everything queued since its last write as one
// scatter/gather write per wake, until cleanup stops it. A failed write
// closes the connection. No delivery can fail for its size: the broker
// refuses an oversize message at publish (ErrTooLarge), and subscribe
// bounds the consumer id every deliver frame adds to it.
func (c *serverConn) writeLoop() {
	w := wire.NewWriter(c.conn)
	var batch []wire.Frame
	for {
		select {
		case <-c.out.kick:
		case <-c.out.stop:
			return
		}
		batch = c.out.take(batch)
		if len(batch) == 0 {
			continue
		}
		err := w.WriteBatch(batch)
		if err == nil {
			c.srv.writes.Add(1)
			c.srv.frames.Add(uint64(len(batch)))
		} else {
			// The read loop will notice the broken connection and clean up.
			_ = c.conn.Close()
		}
		clear(batch) // drop body and header references
	}
}

// cleanup cancels this connection's consumers, which requeues every
// delivery it did not settle, written or still queued, then closes the
// connection and waits for the writer to stop.
func (c *serverConn) cleanup() {
	c.mu.Lock()
	subs := c.subs
	c.subs = nil
	c.mu.Unlock()
	for _, cons := range subs {
		_ = c.srv.broker.cancel(cons)
	}
	_ = c.conn.Close()
	close(c.out.stop)
	<-c.out.done
}

// reply queues f behind everything queued before it and wakes the writer.
func (c *serverConn) reply(f wire.Frame) {
	if wake := c.out.push(f); wake != nil {
		wake()
	}
}

func (c *serverConn) handle(f *wire.Frame) error {
	b := c.srv.broker
	switch f.Op {
	case wire.OpPing:
		c.reply(wire.Frame{Op: wire.OpPong, Seq: f.Seq})
		return nil
	case wire.OpDeclareQueue:
		if err := b.DeclareQueue(f.Queue); err != nil {
			return err
		}
	case wire.OpDeleteQueue:
		if err := b.DeleteQueue(f.Queue); err != nil {
			return err
		}
	case wire.OpDeclareExchange:
		kind, err := ParseExchangeKind(f.Kind)
		if err != nil {
			return err
		}
		if err := b.DeclareExchange(f.Exchange, kind); err != nil {
			return err
		}
	case wire.OpBindQueue:
		if err := b.BindQueue(f.Queue, f.Exchange, f.Key); err != nil {
			return err
		}
	case wire.OpUnbindQueue:
		if err := b.UnbindQueue(f.Queue, f.Exchange, f.Key); err != nil {
			return err
		}
	case wire.OpPublish:
		// f.Body aliases the wire reader's buffer and is only valid until
		// the next Read; the broker retains messages, so this is the one
		// copy on the server's ingest path.
		var body []byte
		if len(f.Body) > 0 {
			body = append(body, f.Body...)
		}
		msg := Message{ID: f.MessageID, Headers: f.Headers, Body: body, Persistent: f.Persistent}
		if err := b.Publish(f.Exchange, f.Key, msg); err != nil {
			return err
		}
	case wire.OpSubscribe:
		return c.subscribe(f)
	case wire.OpCancel:
		return c.cancel(f)
	case wire.OpAck, wire.OpNack:
		c.settle(f)
		return nil
	case wire.OpQueueStats:
		stats, err := b.QueueStats(f.Queue)
		if err != nil {
			return err
		}
		raw, err := codec.Default().MarshalAppend(nil, stats)
		if err != nil {
			return fmt.Errorf("mq: marshal stats: %w", err)
		}
		c.reply(wire.Frame{Op: wire.OpStatsReply, Seq: f.Seq, Stats: raw})
		return nil
	default:
		return fmt.Errorf("mq: server: unexpected frame %v", f.Op)
	}
	c.reply(wire.Frame{Op: wire.OpOK, Seq: f.Seq})
	return nil
}

func (c *serverConn) subscribe(f *wire.Frame) error {
	if len(f.ConsumerID) > maxConsumerID {
		return fmt.Errorf("mq: consumer id of %d B, over the %d B bound", len(f.ConsumerID), maxConsumerID)
	}
	c.mu.Lock()
	_, exists := c.subs[f.ConsumerID]
	c.mu.Unlock()
	if exists {
		return fmt.Errorf("mq: consumer %q already subscribed", f.ConsumerID)
	}
	cons, err := c.srv.broker.subscribe(f.Queue, f.Prefetch, c.deliverTo(f.ConsumerID), nil)
	if err != nil {
		return err
	}
	c.mu.Lock()
	c.subs[f.ConsumerID] = cons
	c.mu.Unlock()
	c.reply(wire.Frame{Op: wire.OpOK, Seq: f.Seq})
	return nil
}

// deliverTo is the broker deliver function of consumer id on this
// connection: it keeps the delivery for the settle that will name its tag
// and queues its OpDeliver frame. The body is the broker's, immutable, so
// the frame references it. No queue name: the consumer id names the
// subscription, and the client knows which queue it subscribed to.
func (c *serverConn) deliverTo(consumerID string) func(Delivery) func() {
	return func(d Delivery) func() {
		c.mu.Lock()
		c.unsettled[d.Tag] = d
		c.mu.Unlock()
		return c.out.push(wire.Frame{
			Op:         wire.OpDeliver,
			ConsumerID: consumerID,
			DeliveryID: d.Tag,
			MessageID:  d.Message.ID,
			Headers:    d.Message.Headers,
			Body:       d.Message.Body,
			Persistent: d.Message.Persistent,
			Redelivery: d.Redelivered,
		})
	}
}

func (c *serverConn) cancel(f *wire.Frame) error {
	c.mu.Lock()
	cons, ok := c.subs[f.ConsumerID]
	delete(c.subs, f.ConsumerID)
	c.mu.Unlock()
	if !ok {
		return fmt.Errorf("mq: unknown consumer %q", f.ConsumerID)
	}
	if err := c.srv.broker.cancel(cons); err != nil {
		return err
	}
	c.reply(wire.Frame{Op: wire.OpOK, Seq: f.Seq})
	return nil
}

// settle applies an OpAck or OpNack. Both are one-way, like AMQP's
// basic.ack: nothing is sent back, and a settle for a tag this connection
// does not hold, or no longer holds, is dropped. Frames are handled in
// order, so a Ping or Cancel sent after the settle sees it done.
func (c *serverConn) settle(f *wire.Frame) {
	c.mu.Lock()
	d, ok := c.unsettled[f.DeliveryID]
	delete(c.unsettled, f.DeliveryID)
	c.mu.Unlock()
	if !ok {
		return
	}
	if f.Op == wire.OpAck {
		_ = d.Ack()
	} else {
		_ = d.Nack(f.Requeue)
	}
}

package mq

import (
	"fmt"
	"log"
	"net"
	"sync"

	"stacksync/internal/codec"
	"stacksync/internal/wire"
)

// Server exposes a Broker over TCP using the wire protocol, playing the role
// of the RabbitMQ daemon in the paper's testbed. Each connection multiplexes
// requests and delivery streams for any number of consumers.
type Server struct {
	broker *Broker
	ln     net.Listener

	mu        sync.Mutex
	conns     map[*serverConn]struct{}
	wg        sync.WaitGroup
	done      chan struct{}
	closeOnce sync.Once
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
			w:         wire.NewWriter(conn),
			subs:      make(map[string]*serverSub),
			unsettled: make(map[uint64]*Delivery),
		}
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

	writeMu sync.Mutex
	w       *wire.Writer

	mu        sync.Mutex
	subs      map[string]*serverSub
	unsettled map[uint64]*Delivery
}

type serverSub struct {
	sub  Subscription
	done chan struct{}
}

func (c *serverConn) serve() {
	defer c.cleanup()
	r := wire.NewReader(c.conn)
	for {
		f, err := r.Read()
		if err != nil {
			return // connection gone; cleanup requeues unacked
		}
		if err := c.handle(f); err != nil {
			c.reply(&wire.Frame{Op: wire.OpError, Seq: f.Seq, Err: err.Error()})
		}
	}
}

func (c *serverConn) cleanup() {
	c.mu.Lock()
	subs := make([]*serverSub, 0, len(c.subs))
	for _, ss := range c.subs {
		subs = append(subs, ss)
	}
	c.subs = map[string]*serverSub{}
	c.unsettled = map[uint64]*Delivery{}
	c.mu.Unlock()
	for _, ss := range subs {
		_ = ss.sub.Cancel() // requeues this connection's unacked messages
		<-ss.done
	}
	_ = c.conn.Close()
}

func (c *serverConn) reply(f *wire.Frame) {
	c.writeMu.Lock()
	defer c.writeMu.Unlock()
	if err := c.w.Write(f); err != nil {
		// The read loop will notice the broken connection and clean up.
		_ = c.conn.Close()
	}
}

func (c *serverConn) handle(f *wire.Frame) error {
	b := c.srv.broker
	switch f.Op {
	case wire.OpPing:
		c.reply(&wire.Frame{Op: wire.OpPong, Seq: f.Seq})
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
		c.reply(&wire.Frame{Op: wire.OpStatsReply, Seq: f.Seq, Stats: raw})
		return nil
	default:
		return fmt.Errorf("mq: server: unexpected frame %v", f.Op)
	}
	c.reply(&wire.Frame{Op: wire.OpOK, Seq: f.Seq})
	return nil
}

func (c *serverConn) subscribe(f *wire.Frame) error {
	c.mu.Lock()
	if _, exists := c.subs[f.ConsumerID]; exists {
		c.mu.Unlock()
		return fmt.Errorf("mq: consumer %q already subscribed", f.ConsumerID)
	}
	c.mu.Unlock()
	sub, err := c.srv.broker.Subscribe(f.Queue, f.Prefetch)
	if err != nil {
		return err
	}
	ss := &serverSub{sub: sub, done: make(chan struct{})}
	c.mu.Lock()
	c.subs[f.ConsumerID] = ss
	c.mu.Unlock()
	consumerID := f.ConsumerID
	go func() {
		defer close(ss.done)
		for d := range sub.Deliveries() {
			d := d
			c.mu.Lock()
			c.unsettled[d.Tag] = &d
			c.mu.Unlock()
			// No queue name: the consumer id names the subscription, and the
			// client already knows which queue it subscribed to.
			c.reply(&wire.Frame{
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
	}()
	c.reply(&wire.Frame{Op: wire.OpOK, Seq: f.Seq})
	return nil
}

func (c *serverConn) cancel(f *wire.Frame) error {
	c.mu.Lock()
	ss, ok := c.subs[f.ConsumerID]
	if ok {
		delete(c.subs, f.ConsumerID)
	}
	c.mu.Unlock()
	if !ok {
		return fmt.Errorf("mq: unknown consumer %q", f.ConsumerID)
	}
	if err := ss.sub.Cancel(); err != nil {
		return err
	}
	<-ss.done
	c.reply(&wire.Frame{Op: wire.OpOK, Seq: f.Seq})
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

package mq

import (
	"errors"
	"fmt"
	"net"
	"strconv"
	"strings"
	"sync"

	"stacksync/internal/codec"
	"stacksync/internal/wire"
)

// Client is a network MQ implementation speaking the wire protocol to a
// Server. It satisfies the same MQ interface as the in-process Broker, so
// ObjectMQ code is agnostic to deployment.
type Client struct {
	conn net.Conn

	writeMu sync.Mutex
	w       *wire.Writer

	mu       sync.Mutex
	nextSeq  uint64
	nextCons uint64
	pending  map[uint64]chan *wire.Frame
	subs     map[string]*clientSub
	closed   bool

	readerDone chan struct{}
}

var _ MQ = (*Client)(nil)

type clientSub struct {
	client     *Client
	consumerID string
	queue      string // stamped on each Delivery; OpDeliver does not carry it
	ch         chan Delivery
	cancelled  bool
}

var _ Subscription = (*clientSub)(nil)

// Dial connects to a Server at addr.
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("mq: dial %s: %w", addr, err)
	}
	c := &Client{
		conn:       conn,
		w:          wire.NewWriter(conn),
		pending:    make(map[uint64]chan *wire.Frame),
		subs:       make(map[string]*clientSub),
		readerDone: make(chan struct{}),
	}
	go c.readLoop()
	return c, nil
}

func (c *Client) readLoop() {
	defer close(c.readerDone)
	r := wire.NewReader(c.conn)
	for {
		f, err := r.Read()
		if err != nil {
			c.failAll(err)
			return
		}
		switch f.Op {
		case wire.OpDeliver:
			c.mu.Lock()
			sub, ok := c.subs[f.ConsumerID]
			if !ok || sub.cancelled {
				// Subscription raced with cancel; the server requeues the
				// message when the cancel lands.
				c.mu.Unlock()
				continue
			}
			// The send is non-blocking by construction: the server keeps at
			// most `prefetch` deliveries unacked per consumer and the channel
			// buffer is exactly `prefetch`. Sending under the mutex
			// serializes against Cancel closing the channel.
			// f.Body aliases the wire reader's buffer and is only valid
			// until the next Read; the delivery outlives it, so copy here.
			var body []byte
			if len(f.Body) > 0 {
				body = append(body, f.Body...)
			}
			sub.ch <- Delivery{
				Message: Message{
					ID:         f.MessageID,
					Headers:    f.Headers,
					Body:       body,
					Persistent: f.Persistent,
				},
				Queue:       sub.queue,
				Tag:         f.DeliveryID,
				Redelivered: f.Redelivery,
				settle:      c.settleFunc(f.DeliveryID),
			}
			c.mu.Unlock()
		default:
			c.mu.Lock()
			ch, ok := c.pending[f.Seq]
			if ok {
				delete(c.pending, f.Seq)
			}
			c.mu.Unlock()
			if ok {
				// The waiter reads the frame after the loop has moved on to
				// the next Read, so detach it from the reader's buffer.
				ch <- f.Clone()
			}
		}
	}
}

func (c *Client) failAll(err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.closed = true
	for seq, ch := range c.pending {
		delete(c.pending, seq)
		ch <- &wire.Frame{Op: wire.OpError, Err: err.Error()}
	}
	for id, sub := range c.subs {
		if !sub.cancelled {
			sub.cancelled = true
			close(sub.ch)
		}
		delete(c.subs, id)
	}
}

// request sends f and blocks for the matching response.
func (c *Client) request(f *wire.Frame) (*wire.Frame, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, ErrClosed
	}
	c.nextSeq++
	f.Seq = c.nextSeq
	ch := make(chan *wire.Frame, 1)
	c.pending[f.Seq] = ch
	c.mu.Unlock()

	if err := c.send(f); err != nil {
		c.mu.Lock()
		delete(c.pending, f.Seq)
		c.mu.Unlock()
		return nil, err
	}
	resp := <-ch
	if resp.Op == wire.OpError {
		return nil, remoteError(resp.Err)
	}
	return resp, nil
}

// send writes f and returns; nothing waits for an answer.
func (c *Client) send(f *wire.Frame) error {
	c.writeMu.Lock()
	err := c.w.Write(f)
	c.writeMu.Unlock()
	if err != nil {
		return fmt.Errorf("mq: send %v: %w", f.Op, err)
	}
	return nil
}

// remoteError maps well-known broker error strings back to sentinel errors
// so errors.Is works across the network boundary. Broker errors may carry
// wrapped context ("mq: publish to \"q\": mq: queue not found"), so the
// sentinel is matched as a suffix.
func remoteError(msg string) error {
	for _, sentinel := range []error{
		ErrQueueNotFound, ErrExchangeExists, ErrNoExchange, ErrBadPrefetch, ErrClosed,
	} {
		if strings.HasSuffix(msg, sentinel.Error()) {
			if msg == sentinel.Error() {
				return sentinel
			}
			return fmt.Errorf("%s: %w", strings.TrimSuffix(msg, ": "+sentinel.Error()), sentinel)
		}
	}
	return errors.New(msg)
}

// DeclareQueue creates the named queue on the remote broker.
func (c *Client) DeclareQueue(name string) error {
	_, err := c.request(&wire.Frame{Op: wire.OpDeclareQueue, Queue: name})
	return err
}

// DeleteQueue removes the named queue on the remote broker.
func (c *Client) DeleteQueue(name string) error {
	_, err := c.request(&wire.Frame{Op: wire.OpDeleteQueue, Queue: name})
	return err
}

// DeclareExchange creates an exchange on the remote broker.
func (c *Client) DeclareExchange(name string, kind ExchangeKind) error {
	_, err := c.request(&wire.Frame{Op: wire.OpDeclareExchange, Exchange: name, Kind: kind.String()})
	return err
}

// BindQueue binds a queue to an exchange on the remote broker.
func (c *Client) BindQueue(queue, exchangeName, key string) error {
	_, err := c.request(&wire.Frame{Op: wire.OpBindQueue, Queue: queue, Exchange: exchangeName, Key: key})
	return err
}

// UnbindQueue removes a binding on the remote broker.
func (c *Client) UnbindQueue(queue, exchangeName, key string) error {
	_, err := c.request(&wire.Frame{Op: wire.OpUnbindQueue, Queue: queue, Exchange: exchangeName, Key: key})
	return err
}

// Publish routes a message on the remote broker.
func (c *Client) Publish(exchangeName, key string, msg Message) error {
	if err := checkFits(&msg); err != nil {
		return err
	}
	_, err := c.request(&wire.Frame{
		Op:         wire.OpPublish,
		Exchange:   exchangeName,
		Key:        key,
		MessageID:  msg.ID,
		Headers:    msg.Headers,
		Body:       msg.Body,
		Persistent: msg.Persistent,
	})
	return err
}

// Subscribe registers a consumer on the remote queue.
func (c *Client) Subscribe(queueName string, prefetch int) (Subscription, error) {
	if prefetch < 1 {
		return nil, ErrBadPrefetch
	}
	c.mu.Lock()
	c.nextCons++
	id := "c" + strconv.FormatUint(c.nextCons, 10)
	sub := &clientSub{client: c, consumerID: id, queue: queueName, ch: make(chan Delivery, prefetch)}
	c.subs[id] = sub
	c.mu.Unlock()
	if _, err := c.request(&wire.Frame{Op: wire.OpSubscribe, Queue: queueName, ConsumerID: id, Prefetch: prefetch}); err != nil {
		c.mu.Lock()
		delete(c.subs, id)
		c.mu.Unlock()
		return nil, err
	}
	return sub, nil
}

// QueueStats fetches a queue snapshot from the remote broker.
func (c *Client) QueueStats(name string) (QueueStats, error) {
	resp, err := c.request(&wire.Frame{Op: wire.OpQueueStats, Queue: name})
	if err != nil {
		return QueueStats{}, err
	}
	var stats QueueStats
	if err := codec.Default().Unmarshal(resp.Stats, &stats); err != nil {
		return QueueStats{}, fmt.Errorf("mq: decode stats: %w", err)
	}
	return stats, nil
}

// Ping round-trips a heartbeat frame.
func (c *Client) Ping() error {
	_, err := c.request(&wire.Frame{Op: wire.OpPing})
	return err
}

// Close tears down the connection. The server requeues unacked deliveries.
func (c *Client) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	c.mu.Unlock()
	err := c.conn.Close()
	<-c.readerDone
	return err
}

// settleFunc sends a one-way OpAck or OpNack: Ack returning means "sent",
// not "settled". The server handles a connection's frames in order, so a
// later request on this Client, such as Ping, returns after the settle.
func (c *Client) settleFunc(deliveryID uint64) func(ack, requeue bool) error {
	return func(ack, requeue bool) error {
		c.mu.Lock()
		closed := c.closed
		c.mu.Unlock()
		if closed {
			return ErrClosed
		}
		f := &wire.Frame{Op: wire.OpAck, DeliveryID: deliveryID}
		if !ack {
			f.Op, f.Requeue = wire.OpNack, requeue
		}
		return c.send(f)
	}
}

func (s *clientSub) Deliveries() <-chan Delivery { return s.ch }

// Cancel unregisters the consumer on the server; its unacked deliveries are
// requeued there.
func (s *clientSub) Cancel() error {
	s.client.mu.Lock()
	if s.cancelled {
		s.client.mu.Unlock()
		return nil
	}
	s.cancelled = true
	delete(s.client.subs, s.consumerID)
	closed := s.client.closed
	close(s.ch)
	s.client.mu.Unlock()
	if closed {
		return nil
	}
	_, err := s.client.request(&wire.Frame{Op: wire.OpCancel, ConsumerID: s.consumerID})
	return err
}

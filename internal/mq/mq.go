// Package mq implements the messaging substrate the paper deploys as
// RabbitMQ 2.8.7: named queues with competing consumers, direct and fanout
// exchanges, explicit acknowledgements with redelivery, per-consumer
// prefetch, round-robin load balancing and an optional journal from which a
// restarted broker recovers its topology and unacked persistent messages.
//
// Two implementations satisfy the MQ interface: Broker (in-process) and
// Client (over TCP, speaking the wire protocol to a Server wrapping a
// Broker). ObjectMQ is written against MQ and works with either.
package mq

import (
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"stacksync/internal/wire"
)

// ExchangeKind selects the routing discipline of an exchange.
type ExchangeKind int

const (
	// Direct routes a message to the queues bound with a key equal to the
	// routing key of the publication.
	Direct ExchangeKind = iota + 1
	// Fanout copies every message to all bound queues, ignoring keys. This
	// is the AMQP fanout exchange the paper uses for @MultiMethod.
	Fanout
)

// String returns the AMQP-style name of the kind.
func (k ExchangeKind) String() string {
	switch k {
	case Direct:
		return "direct"
	case Fanout:
		return "fanout"
	default:
		return "unknown"
	}
}

// ParseExchangeKind converts a wire-level kind name back to an ExchangeKind.
func ParseExchangeKind(s string) (ExchangeKind, error) {
	switch s {
	case "direct":
		return Direct, nil
	case "fanout":
		return Fanout, nil
	default:
		return 0, errors.New("mq: unknown exchange kind " + s)
	}
}

// Message is the unit published to the broker. Body is opaque to mq.
type Message struct {
	// ID identifies the message for correlation and journalling. Publish
	// assigns one when empty.
	ID string
	// Headers carry middleware metadata (trace context).
	Headers map[string]string
	// Body is the serialized payload.
	Body []byte
	// Persistent messages survive broker restart when journalling is on.
	Persistent bool
}

// Delivery is a message handed to a consumer. The consumer must call exactly
// one of Ack or Nack; unacknowledged deliveries are requeued when the
// consumer is cancelled or its connection dies, which is the property §3.4
// relies on for fault tolerance ("no remote invocations can be lost").
type Delivery struct {
	Message
	// Queue is the queue the message was consumed from.
	Queue string
	// Tag uniquely identifies this delivery at the broker.
	Tag uint64
	// Redelivered counts prior delivery attempts of this message.
	Redelivered int

	settle func(ack, requeue bool) error
}

// Ack confirms successful processing; the broker forgets the message.
func (d *Delivery) Ack() error { return d.settleOnce(true, false) }

// Nack reports failed processing. With requeue the message returns to the
// front of its queue for another consumer; without, it is dropped.
func (d *Delivery) Nack(requeue bool) error { return d.settleOnce(false, requeue) }

func (d *Delivery) settleOnce(ack, requeue bool) error {
	if d.settle == nil {
		return ErrAlreadySettled
	}
	f := d.settle
	d.settle = nil
	return f(ack, requeue)
}

// QueueStats is the introspection snapshot ObjectMQ provisioners consume
// (§3.3: "adapt to message processing time in queues").
type QueueStats struct {
	Name        string  `json:"name"`
	Depth       int     `json:"depth"`       // messages waiting
	Unacked     int     `json:"unacked"`     // delivered, not yet settled
	Consumers   int     `json:"consumers"`   // active consumers
	Enqueued    uint64  `json:"enqueued"`    // lifetime publish count
	Acked       uint64  `json:"acked"`       // lifetime ack count
	Redelivered uint64  `json:"redelivered"` // lifetime redelivery count
	ArrivalRate float64 `json:"arrivalRate"` // msgs/sec over the rate window
}

// Subscription is a live consumer registration on a queue.
type Subscription interface {
	// Deliveries streams messages. The channel closes after Cancel or when
	// the broker shuts down.
	Deliveries() <-chan Delivery
	// Cancel unregisters the consumer and requeues its unacked deliveries.
	Cancel() error
}

// MQ is the broker surface ObjectMQ programs against; satisfied by the
// in-process Broker and by the TCP Client.
type MQ interface {
	DeclareQueue(name string) error
	DeleteQueue(name string) error
	DeclareExchange(name string, kind ExchangeKind) error
	BindQueue(queue, exchange, key string) error
	UnbindQueue(queue, exchange, key string) error
	Publish(exchange, key string, msg Message) error
	Subscribe(queue string, prefetch int) (Subscription, error)
	QueueStats(name string) (QueueStats, error)
	Close() error
}

// Publication is one routed message: an entry of PublishAll's list.
type Publication struct {
	Exchange string
	Key      string
	Message  Message
}

// PublishAll publishes each publication through m.Publish in order. Nothing
// in this module calls it; it stays, with Publication, because the
// benchmark's MQ tap (benchmark/wrap.go) still calls both. Errors are
// joined; publications after a failure still go out.
func PublishAll(m MQ, pubs []Publication) error {
	var errs []error
	for _, p := range pubs {
		if err := m.Publish(p.Exchange, p.Key, p.Message); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// Errors shared by broker and client.
var (
	ErrClosed         = errors.New("mq: broker closed")
	ErrQueueNotFound  = errors.New("mq: queue not found")
	ErrExchangeExists = errors.New("mq: exchange exists with different kind")
	ErrNoExchange     = errors.New("mq: exchange not found")
	ErrAlreadySettled = errors.New("mq: delivery already settled")
	ErrBadPrefetch    = errors.New("mq: prefetch must be positive")
	// ErrTooLarge refuses, at publish, a message whose frame could not be
	// written: one undeliverable message fails its own publish, never the
	// connection it would have shared.
	ErrTooLarge = errors.New("mq: message too large for one frame")
)

// frameSlack bounds what a publish or deliver frame adds to a message's
// body, id and headers: op, consumer id, delivery tag, redelivery count,
// field ids and lengths.
const frameSlack = 512

// maxConsumerID bounds the consumer id a subscription may name. Every
// deliver frame carries it, so this bound, well under frameSlack, is what
// keeps the deliver frame of any message that passed checkFits writable.
const maxConsumerID = 128

// checkFits returns ErrTooLarge when msg's frame could exceed
// wire.MaxFrameSize.
func checkFits(msg *Message) error {
	n := len(msg.Body) + len(msg.ID) + frameSlack
	for k, v := range msg.Headers {
		n += len(k) + len(v) + 2*binary.MaxVarintLen32
	}
	if n > wire.MaxFrameSize {
		return fmt.Errorf("%d B body: %w", len(msg.Body), ErrTooLarge)
	}
	return nil
}

// rateWindow is the sliding window over which ArrivalRate is computed.
const rateWindow = 60 * time.Second

package main

import (
	"context"
	"io"
	"strconv"
	"strings"
	"sync/atomic"

	"stacksync/internal/chunker"
	"stacksync/internal/mq"
	"stacksync/internal/objstore"
)

// The wrappers in this file sit on interfaces the program already accepts
// (chunker.Chunker, objstore.Store, mq.MQ) and record one span per call.
// They are only installed in the traced run; the one exception is tapMQ's
// offline switch, which is how trace_mix takes a mobile device off the air.

// tracedChunker times Split, which cuts and SHA-1 fingerprints every chunk.
type tracedChunker struct {
	chunker.Chunker
	rec *recorder
	dev int
}

func (c tracedChunker) Split(r io.Reader) ([]chunker.Chunk, error) {
	start := now()
	chunks, err := c.Chunker.Split(r)
	var n int64
	for _, ch := range chunks {
		n += int64(len(ch.Data))
	}
	c.rec.add(span{Name: "chunker.split", Dev: c.dev, Start: start, End: now(), N: len(chunks), Bytes: n, Err: err != nil})
	return chunks, err
}

// tracedStore times the batch calls the client's transfer pipeline makes
// (prefix "objstore.") and, in the server child, the ones the HTTP gateway
// passes on to the Disk store (prefix "disk."). Single-object calls, which
// only the client's deferred-upload repair makes, pass through untimed.
type tracedStore struct {
	objstore.Store
	rec    *recorder
	dev    int
	prefix string
}

func (s tracedStore) done(op string, start int64, n int, bytes int64, err error) {
	s.rec.add(span{Name: s.prefix + op, Dev: s.dev, Start: start, End: now(), N: n, Bytes: bytes, Err: err != nil})
}

func (s tracedStore) PutMulti(ctx context.Context, container string, objects []objstore.Object) error {
	start := now()
	err := s.Store.PutMulti(ctx, container, objects)
	var n int64
	for _, o := range objects {
		n += int64(len(o.Data))
	}
	s.done("put_multi", start, len(objects), n, err)
	return err
}

func (s tracedStore) GetMulti(ctx context.Context, container string, keys []string) ([][]byte, error) {
	start := now()
	data, err := s.Store.GetMulti(ctx, container, keys)
	var n int64
	for _, d := range data {
		n += int64(len(d))
	}
	s.done("get_multi", start, len(keys), n, err)
	return data, err
}

func (s tracedStore) ExistsMulti(ctx context.Context, container string, keys []string) ([]bool, error) {
	start := now()
	present, err := s.Store.ExistsMulti(ctx, container, keys)
	s.done("exists_multi", start, len(keys), 0, err)
	return present, err
}

// tapMQ is the seam on a broker connection. With a recorder it stamps every
// message it publishes with an id (mq.Message.ID is the broker's correlation
// field; the broker only assigns one when it is empty), times the publish and
// notes every delivery, so a request can be followed from a device through
// the broker to a SyncService instance and back out as a notification.
type tapMQ struct {
	mq.MQ
	rec      *recorder
	dev      int
	idPrefix string
	seq      atomic.Uint64
	// offline drops workspace notifications instead of delivering them: the
	// device's private queue loses what arrives while it is off the air, as a
	// phone's auto-delete queue would. nil for devices that never go offline.
	offline *atomic.Bool
	// lastNotify is when the newest workspace notification reached the device.
	lastNotify atomic.Int64
}

func (t *tapMQ) stamp(m *mq.Message) {
	if m.ID == "" {
		m.ID = t.idPrefix + strconv.FormatUint(t.seq.Add(1), 10)
	}
}

// target names where a publish goes: the exchange, or for the default
// exchange the queue the routing key addresses.
func target(exchange, key string) string {
	if exchange != "" {
		return exchange
	}
	return key
}

func (t *tapMQ) Publish(exchange, key string, msg mq.Message) error {
	if t.rec == nil {
		return t.MQ.Publish(exchange, key, msg)
	}
	t.stamp(&msg)
	start := now()
	err := t.MQ.Publish(exchange, key, msg)
	t.rec.add(span{Name: "mq.publish", Dev: t.dev, ID: msg.ID, Key: target(exchange, key),
		Start: start, End: now(), N: 1, Bytes: int64(len(msg.Body)), Err: err != nil})
	return err
}

// PublishBatch keeps the one-round-trip batch path of the wrapped MQ (the
// SyncService's notification drainer relies on it) and records one span per
// publication, all sharing the batch's interval.
func (t *tapMQ) PublishBatch(pubs []mq.Publication) error {
	if t.rec == nil {
		return mq.PublishAll(t.MQ, pubs)
	}
	stamped := make([]mq.Publication, len(pubs))
	for i, p := range pubs {
		t.stamp(&p.Message)
		stamped[i] = p
	}
	start := now()
	err := mq.PublishAll(t.MQ, stamped)
	end := now()
	for _, p := range stamped {
		t.rec.add(span{Name: "mq.publish", Dev: t.dev, ID: p.Message.ID, Key: target(p.Exchange, p.Key),
			Start: start, End: end, N: len(stamped), Bytes: int64(len(p.Message.Body)), Err: err != nil})
	}
	return err
}

func (t *tapMQ) Subscribe(queue string, prefetch int) (mq.Subscription, error) {
	inner, err := t.MQ.Subscribe(queue, prefetch)
	if err != nil {
		return nil, err
	}
	s := &tapSub{tap: t, inner: inner, ch: make(chan mq.Delivery, prefetch)}
	go s.pump()
	return s, nil
}

// isNotifyQueue reports whether queue is a device's private queue on a
// workspace notification exchange (omq names it "<oid>.multi.<broker>.<id>").
func isNotifyQueue(queue string) bool {
	return strings.HasPrefix(queue, "workspace.") && strings.Contains(queue, ".multi.")
}

type tapSub struct {
	tap   *tapMQ
	inner mq.Subscription
	ch    chan mq.Delivery
}

// pump forwards deliveries until the inner subscription closes, which Cancel
// (or the connection dying) causes.
func (s *tapSub) pump() {
	t := s.tap
	for d := range s.inner.Deliveries() {
		notify := isNotifyQueue(d.Queue)
		if notify && t.offline != nil && t.offline.Load() {
			_ = d.Ack() // lost while offline; the next resync repairs it
			continue
		}
		at := now()
		if notify {
			t.lastNotify.Store(at)
		}
		t.rec.add(span{Name: "mq.deliver", Dev: t.dev, ID: d.ID, Key: d.Queue,
			Start: at, End: at, N: d.Redelivered, Bytes: int64(len(d.Body))})
		s.ch <- d
	}
	close(s.ch)
}

func (s *tapSub) Deliveries() <-chan mq.Delivery { return s.ch }

func (s *tapSub) Cancel() error { return s.inner.Cancel() }

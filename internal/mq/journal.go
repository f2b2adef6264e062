package mq

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"slices"

	"stacksync/internal/reclog"
)

// Journal is the broker's append-only log of declarations and persistent
// messages (DESIGN.md §18), the property §3.4 appeals to: "the messaging
// system can be instrumented to store all the messages present in the
// queues, so that when the system is restarted, the unprocessed messages can
// be recovered."
//
// The file is a record log (DESIGN §20) under journalMagic, and its writer
// the log's writer without fsync: a record is in the file, not fsync'd, once
// it is appended, which survives a crash of the process, not of the
// machine. The broker appends records under its mutex, which fixes their
// order and guards scratch. A nil *Journal is a disabled journal.
type Journal struct {
	w       *reclog.Writer
	scratch []byte // payload under construction
}

// journalMagic opens every journal file; anything else is refused. It
// names the codec of the envelopes inside too: SSMQJNL2 journals hold
// envelopes of the tagged codec that preceded the positional one.
const journalMagic = "SSMQJNL3"

// Record types. Every record but recPublish has the payload
// op | uvarint a | uvarint b | strings, each string uvarint-length-prefixed.
const (
	recDeclareQueue    byte = iota + 1 // a=queue id, name
	recDeleteQueue                     // a=queue id
	recDeclareExchange                 // a=kind, name
	recBind                            // a=queue id, exchange, key
	recUnbind                          // a=queue id, exchange, key
	recAck                             // a=queue id, b=LSN
	recSeq                             // a=the broker's sequence counter
	// recPublish is op | LSN | n | n queue ids | id | h | h key/value
	// pairs | body, the body running to the end of the payload.
	recPublish
)

// createJournal creates the journal at path, which must not exist, and
// returns it with its file, which recovery fsyncs before renaming it.
func createJournal(path string) (*Journal, *os.File, error) {
	f, err := reclog.Create(path, journalMagic)
	if err != nil {
		return nil, nil, fmt.Errorf("mq: create journal: %w", err)
	}
	return &Journal{w: reclog.NewWriter(reclog.MapTail(f), int64(len(journalMagic)), false, nil)}, f, nil
}

// record appends one non-publish record, or returns the error that stopped
// the journal.
func (j *Journal) record(op byte, a, b uint64, strs ...string) error {
	if j == nil {
		return nil
	}
	p := binary.AppendUvarint(binary.AppendUvarint(append(j.scratch[:0], op), a), b)
	for _, s := range strs {
		p = reclog.AppendString(p, s)
	}
	j.scratch = p
	_, err := j.w.Append(p)
	return err
}

// publish appends the single record of a message routed to targets.
func (j *Journal) publish(lsn uint64, targets []*queue, msg *Message) error {
	if j == nil {
		return nil
	}
	p := binary.AppendUvarint(append(j.scratch[:0], recPublish), lsn)
	p = binary.AppendUvarint(p, uint64(len(targets)))
	for _, q := range targets {
		p = binary.AppendUvarint(p, q.id)
	}
	p = reclog.AppendString(p, msg.ID)
	p = binary.AppendUvarint(p, uint64(len(msg.Headers)))
	for k, v := range msg.Headers {
		p = reclog.AppendString(reclog.AppendString(p, k), v)
	}
	j.scratch = append(p, msg.Body...)
	_, err := j.w.Append(j.scratch)
	return err
}

// Close cuts the file after its last record and closes it.
func (j *Journal) Close() error {
	if j == nil {
		return nil
	}
	return j.w.Close()
}

// RecoverBroker replays the journal at path into a fresh Broker: topology,
// and each persistent message on every queue that has not acked it, in
// publication order. It then rewrites the journal as exactly that state,
// beside it and renamed over it (a crash in between leaves the old file),
// which bounds the file by what is live and discards a torn tail instead of
// appending to it. The broker keeps journalling to the new file. A journal
// another broker has open is refused untouched (reclog.ErrInUse).
func RecoverBroker(path string, opts ...BrokerOption) (*Broker, error) {
	b := NewBroker(opts...)
	st := replayState{b: b, queues: make(map[uint64]*queue), live: make(map[uint64]*livePub)}
	old, _, err := reclog.Open(path, journalMagic, st.apply)
	if errors.Is(err, reclog.ErrMagic) {
		return nil, fmt.Errorf("mq: %w; earlier formats, SSMQJNL2 and JSON-lines journals, are not read", err)
	} else if err != nil {
		return nil, fmt.Errorf("mq: open journal for recovery: %w", err)
	}
	defer old.Close() // its lock refuses a second opener until the rename
	tmp := path + ".tmp"
	_ = os.Remove(tmp) // left by a crash mid-compaction; if it stays, createJournal says so
	j, f, err := createJournal(tmp)
	if err != nil {
		return nil, err
	}
	if err = b.checkpointTo(j, st.live); err == nil {
		err = f.Sync()
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		_ = j.Close()
		_ = os.Remove(tmp)
		return nil, fmt.Errorf("mq: compact journal: %w", err)
	}
	b.journal = j
	return b, nil
}

// livePub is a replayed message and the queues that have yet to ack it.
type livePub struct {
	msg     Message
	targets []*queue
}

// checkpointTo appends the broker's state to j: the counter, topology, and
// the live messages in LSN order, which it also puts on their queues. Only
// recovery calls it, on a new journal and before the broker is shared, so it
// takes no lock. It returns the first append's error, if one fails.
func (b *Broker) checkpointTo(j *Journal, live map[uint64]*livePub) error {
	var err error
	keep := func(e error) { err = cmp.Or(err, e) }
	keep(j.record(recSeq, b.seq, 0))
	for _, q := range b.queues {
		keep(j.record(recDeclareQueue, q.id, 0, q.name))
	}
	for name, ex := range b.exchanges {
		keep(j.record(recDeclareExchange, uint64(ex.kind), 0, name))
		for key, set := range ex.bindings {
			for _, q := range set {
				keep(j.record(recBind, q.id, 0, name, key))
			}
		}
	}
	lsns := make([]uint64, 0, len(live))
	for lsn := range live {
		lsns = append(lsns, lsn)
	}
	slices.Sort(lsns)
	deleted := func(q *queue) bool { return b.queues[q.name] != q }
	for _, lsn := range lsns {
		p := live[lsn]
		if p.targets = slices.DeleteFunc(p.targets, deleted); len(p.targets) > 0 {
			keep(j.publish(lsn, p.targets, &p.msg))
		}
		for _, q := range p.targets {
			q.pending.PushBack(queuedMsg{msg: p.msg, lsn: lsn})
			q.enqueued++
		}
	}
	return err
}

type replayState struct {
	b      *Broker
	queues map[uint64]*queue // declared and not deleted, by journal id
	live   map[uint64]*livePub
}

// apply replays one record, reporting whether it was well formed. Records
// that name a queue or exchange deleted since are skipped, not malformed.
func (st *replayState) apply(payload []byte, _ int64) bool {
	if len(payload) == 0 {
		return false
	}
	b, d := st.b, reclog.NewDecoder(payload[1:])
	if payload[0] == recPublish {
		return st.applyPublish(&d)
	}
	a, lsn := d.Uvarint(), d.Uvarint()
	q := st.queues[a]
	switch payload[0] {
	case recDeclareQueue:
		name := d.Str()
		if _, dup := b.queues[name]; !d.OK() || dup || q != nil {
			return false
		}
		q = b.addQueueLocked(name)
		q.id = a
		st.queues[a] = q
		b.nextQueueID = max(b.nextQueueID, a)
	case recDeleteQueue:
		if q != nil {
			delete(st.queues, q.id)
			_ = b.DeleteQueue(q.name) // declared above, so it exists
		}
	case recDeclareExchange:
		name, kind := d.Str(), ExchangeKind(a)
		if !d.OK() || (kind != Direct && kind != Fanout) || b.DeclareExchange(name, kind) != nil {
			return false
		}
	case recBind, recUnbind:
		exchange, key := d.Str(), d.Str()
		if !d.OK() {
			return false
		}
		if q != nil && payload[0] == recBind {
			_ = b.BindQueue(q.name, exchange, key) // fails only for an exchange never declared
		} else if q != nil {
			_ = b.UnbindQueue(q.name, exchange, key)
		}
	case recAck:
		if p := st.live[lsn]; p != nil && q != nil {
			p.targets = slices.DeleteFunc(p.targets, func(t *queue) bool { return t == q })
			if len(p.targets) == 0 {
				delete(st.live, lsn)
			}
		}
	case recSeq:
		b.seq = max(b.seq, a)
	default:
		return false
	}
	return d.Done()
}

func (st *replayState) applyPublish(d *reclog.Decoder) bool {
	lsn, n := d.Uvarint(), d.Uvarint()
	if !d.OK() || lsn == 0 || st.live[lsn] != nil || n > uint64(len(d.Rest())) {
		return false
	}
	p := &livePub{msg: Message{Persistent: true}}
	for ; n > 0; n-- {
		if q := st.queues[d.Uvarint()]; q != nil {
			p.targets = append(p.targets, q)
		}
	}
	p.msg.ID = d.Str()
	if n = d.Uvarint(); n > uint64(len(d.Rest())) {
		return false
	}
	if n > 0 {
		p.msg.Headers = make(map[string]string, n)
	}
	for ; n > 0; n-- {
		k := d.Str()
		p.msg.Headers[k] = d.Str()
	}
	if !d.OK() {
		return false
	}
	if body := d.Rest(); len(body) > 0 {
		p.msg.Body = append([]byte(nil), body...)
	}
	st.b.seq = max(st.b.seq, lsn)
	if len(p.targets) > 0 {
		st.live[lsn] = p
	}
	return true
}

package mq

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"slices"
	"sync"
)

// Journal is the broker's append-only log of declarations and persistent
// messages (DESIGN.md §18), the property §3.4 appeals to: "the messaging
// system can be instrumented to store all the messages present in the
// queues, so that when the system is restarted, the unprocessed messages can
// be recovered."
//
// The file is journalMagic, then records framed as uvarint(len(payload)) |
// payload | crc32c(payload). The broker appends records to buf under its
// mutex, which fixes their order, and one flusher at a time writes buf out,
// so what accumulates during one write goes out in the next. wait blocks
// until a record is in the file: written, not fsync'd, which survives a
// crash of the process, not of the machine. Ack records are appended with
// no wait and ride the next write: any wait drains the whole buffer, and
// the broker calls flush when no delivery is left outstanding. A nil
// *Journal is a disabled journal.
type Journal struct {
	mu       sync.Mutex
	cond     *sync.Cond // signalled after every write
	f        *os.File
	buf      []byte // framed records not yet handed to the flusher
	scratch  []byte // payload under construction
	appended int64  // bytes ever put in buf
	written  int64  // bytes of buf ever written to f
	flushing bool   // a flusher is running
	err      error  // sticky: the first write error, or errJournalClosed
}

// journalMagic opens every journal file; anything else is refused. It
// names the codec of the envelopes inside too: SSMQJNL2 journals hold
// envelopes of the tagged codec that preceded the positional one.
const journalMagic = "SSMQJNL3"

var (
	errJournalClosed = errors.New("mq: journal closed")
	crcTable         = crc32.MakeTable(crc32.Castagnoli)
)

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

// OpenJournal creates the journal at path for a new broker. An existing
// journal holds queue ids only its own replay can interpret: RecoverBroker
// opens those.
func OpenJournal(path string) (*Journal, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY|os.O_APPEND, 0o644)
	if err == nil {
		if _, err = f.WriteString(journalMagic); err != nil {
			_ = f.Close()
		}
	}
	if err != nil {
		return nil, fmt.Errorf("mq: create journal: %w", err)
	}
	j := &Journal{f: f}
	j.cond = sync.NewCond(&j.mu)
	return j, nil
}

func appendString(p []byte, s string) []byte {
	return append(binary.AppendUvarint(p, uint64(len(s))), s...)
}

// record appends one non-publish record and returns the offset to wait on,
// or the error that has already stopped the journal.
func (j *Journal) record(op byte, a, b uint64, strs ...string) (int64, error) {
	if j == nil {
		return 0, nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	p := binary.AppendUvarint(binary.AppendUvarint(append(j.scratch[:0], op), a), b)
	for _, s := range strs {
		p = appendString(p, s)
	}
	return j.frameLocked(p)
}

// publish appends the single record of a message routed to targets.
func (j *Journal) publish(lsn uint64, targets []*queue, msg *Message) (int64, error) {
	if j == nil {
		return 0, nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	p := binary.AppendUvarint(append(j.scratch[:0], recPublish), lsn)
	p = binary.AppendUvarint(p, uint64(len(targets)))
	for _, q := range targets {
		p = binary.AppendUvarint(p, q.id)
	}
	p = appendString(p, msg.ID)
	p = binary.AppendUvarint(p, uint64(len(msg.Headers)))
	for k, v := range msg.Headers {
		p = appendString(appendString(p, k), v)
	}
	return j.frameLocked(append(p, msg.Body...))
}

// frameLocked frames payload (built in j.scratch) onto buf.
func (j *Journal) frameLocked(payload []byte) (int64, error) {
	j.scratch = payload
	if j.err != nil {
		return 0, j.err
	}
	n := len(j.buf)
	j.buf = slices.Grow(j.buf, binary.MaxVarintLen64+len(payload)+4)
	j.buf = append(binary.AppendUvarint(j.buf, uint64(len(payload))), payload...)
	j.buf = binary.LittleEndian.AppendUint32(j.buf, crc32.Checksum(payload, crcTable))
	j.appended += int64(len(j.buf) - n)
	return j.appended, nil
}

// drainLocked is the flusher: it writes buf out until it runs dry. The
// caller holds j.mu and has seen j.flushing false; setting it keeps everyone
// else out while the mutex is released across each write.
func (j *Journal) drainLocked() {
	j.flushing = true
	for len(j.buf) > 0 && j.err == nil {
		batch := j.buf
		j.buf = nil // batch is the flusher's alone; appends start a new array
		j.mu.Unlock()
		_, err := j.f.Write(batch)
		j.mu.Lock()
		if err != nil {
			j.err = fmt.Errorf("mq: append journal: %w", err)
		} else {
			j.written += int64(len(batch))
		}
		j.cond.Broadcast()
	}
	j.flushing = false
}

// wait returns once everything up to off, an offset record or publish
// returned, is in the file, or with the error that prevented it. If no
// flusher is running the caller becomes it — an uncontended publish writes
// its own record, with no hand-off to another goroutine — and otherwise it
// shares the running flusher's next write.
func (j *Journal) wait(off int64) error {
	if off == 0 {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	for j.written < off && j.err == nil {
		if j.flushing {
			j.cond.Wait()
		} else {
			j.drainLocked()
		}
	}
	if j.written >= off {
		return nil
	}
	return j.err
}

// flush writes out what is buffered and reports the journal's error, if it
// has one. It is for records nobody waits on (acks, and recovery's
// checkpoint): if a flusher is running it returns at once, since that
// flusher's loop takes them along.
func (j *Journal) flush() error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if !j.flushing {
		j.drainLocked()
	}
	return j.err
}

// Close writes out what is buffered and closes the file.
func (j *Journal) Close() error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	for j.flushing {
		j.cond.Wait()
	}
	if j.f == nil {
		return nil
	}
	j.drainLocked()
	err := j.err
	if cerr := j.f.Close(); err == nil && cerr != nil {
		err = fmt.Errorf("mq: close journal: %w", cerr)
	}
	j.f, j.err = nil, errJournalClosed
	return err
}

// RecoverBroker replays the journal at path into a fresh Broker: topology,
// and each persistent message on every queue that has not acked it, in
// publication order. It then rewrites the journal as exactly that state,
// beside it and renamed over it (a crash in between leaves the old file),
// which bounds the file by what is live and discards a torn tail instead of
// appending to it. The broker keeps journalling to the new file.
func RecoverBroker(path string, opts ...BrokerOption) (*Broker, error) {
	b := NewBroker(opts...)
	b.journal = nil // replay without re-recording
	live, err := replayJournal(b, path)
	if err != nil {
		return nil, err
	}
	tmp := path + ".tmp"
	_ = os.Remove(tmp) // left by a crash mid-compaction; if it stays, OpenJournal says so
	j, err := OpenJournal(tmp)
	if err != nil {
		return nil, err
	}
	b.checkpointTo(j, live)
	if err = j.flush(); err == nil {
		err = j.f.Sync()
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
// takes no lock and no append can fail.
func (b *Broker) checkpointTo(j *Journal, live map[uint64]*livePub) {
	j.record(recSeq, b.seq, 0)
	for _, q := range b.queues {
		j.record(recDeclareQueue, q.id, 0, q.name)
	}
	for name, ex := range b.exchanges {
		j.record(recDeclareExchange, uint64(ex.kind), 0, name)
		for key, set := range ex.bindings {
			for _, q := range set {
				j.record(recBind, q.id, 0, name, key)
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
			j.publish(lsn, p.targets, &p.msg)
		}
		for _, q := range p.targets {
			q.pending.PushBack(queuedMsg{msg: p.msg, lsn: lsn})
			q.enqueued++
		}
	}
}

// replayJournal applies the journal at path to b and returns the messages
// still owed to some queue, by LSN. Replay ends at the first record that is
// cut short, fails its checksum or makes no sense; what precedes it stands.
func replayJournal(b *Broker, path string) (map[uint64]*livePub, error) {
	f, err := os.Open(path)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil, nil
		}
		return nil, fmt.Errorf("mq: open journal for recovery: %w", err)
	}
	defer f.Close()
	info, err := f.Stat()
	if err != nil {
		return nil, fmt.Errorf("mq: open journal for recovery: %w", err)
	}
	r := bufio.NewReaderSize(f, 64<<10)
	magic := make([]byte, len(journalMagic))
	if n, _ := io.ReadFull(r, magic); string(magic[:n]) != journalMagic[:n] {
		return nil, fmt.Errorf("mq: %s is not a broker journal: no %q header (earlier formats, SSMQJNL2 and JSON-lines journals, are not read)", path, journalMagic)
	} else if n < len(magic) {
		return nil, nil // crashed while creating the file
	}
	st := replayState{b: b, queues: make(map[uint64]*queue), live: make(map[uint64]*livePub)}
	var rec []byte
	for {
		n, err := binary.ReadUvarint(r)
		if err != nil || n > uint64(info.Size()) {
			break
		}
		if uint64(cap(rec)) < n+4 {
			rec = make([]byte, n+4)
		}
		rec = rec[:n+4]
		if _, err := io.ReadFull(r, rec); err != nil {
			break
		}
		payload := rec[:n]
		if crc32.Checksum(payload, crcTable) != binary.LittleEndian.Uint32(rec[n:]) || !st.apply(payload) {
			break
		}
	}
	return st.live, nil
}

type replayState struct {
	b      *Broker
	queues map[uint64]*queue // declared and not deleted, by journal id
	live   map[uint64]*livePub
}

// journalDecoder reads the fields of one payload; ok turns false, and stays
// false, once a field runs past the end.
type journalDecoder struct {
	p  []byte
	ok bool
}

func (d *journalDecoder) uvarint() uint64 {
	v, n := binary.Uvarint(d.p)
	if n <= 0 {
		d.ok = false
		return 0
	}
	d.p = d.p[n:]
	return v
}

func (d *journalDecoder) str() string {
	n := d.uvarint()
	if n > uint64(len(d.p)) {
		d.ok = false
		return ""
	}
	s := string(d.p[:n])
	d.p = d.p[n:]
	return s
}

// apply replays one record, reporting whether it was well formed. Records
// that name a queue or exchange deleted since are skipped, not malformed.
func (st *replayState) apply(payload []byte) bool {
	if len(payload) == 0 {
		return false
	}
	b, d := st.b, journalDecoder{p: payload[1:], ok: true}
	if payload[0] == recPublish {
		return st.applyPublish(&d)
	}
	a, lsn := d.uvarint(), d.uvarint()
	q := st.queues[a]
	switch payload[0] {
	case recDeclareQueue:
		name := d.str()
		if _, dup := b.queues[name]; !d.ok || dup || q != nil {
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
		name, kind := d.str(), ExchangeKind(a)
		if !d.ok || (kind != Direct && kind != Fanout) || b.DeclareExchange(name, kind) != nil {
			return false
		}
	case recBind, recUnbind:
		exchange, key := d.str(), d.str()
		if !d.ok {
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
	return d.ok && len(d.p) == 0
}

func (st *replayState) applyPublish(d *journalDecoder) bool {
	lsn, n := d.uvarint(), d.uvarint()
	if !d.ok || lsn == 0 || st.live[lsn] != nil || n > uint64(len(d.p)) {
		return false
	}
	p := &livePub{msg: Message{Persistent: true}}
	for ; n > 0; n-- {
		if q := st.queues[d.uvarint()]; q != nil {
			p.targets = append(p.targets, q)
		}
	}
	p.msg.ID = d.str()
	if n = d.uvarint(); n > uint64(len(d.p)) {
		return false
	}
	if n > 0 {
		p.msg.Headers = make(map[string]string, n)
	}
	for ; n > 0; n-- {
		k := d.str()
		p.msg.Headers[k] = d.str()
	}
	if !d.ok {
		return false
	}
	if len(d.p) > 0 {
		p.msg.Body = append([]byte(nil), d.p...)
	}
	st.b.seq = max(st.b.seq, lsn)
	if len(p.targets) > 0 {
		st.live[lsn] = p
	}
	return true
}

package metastore

import (
	"errors"
	"fmt"
	"sync"

	"stacksync/internal/codec"
	"stacksync/internal/obs"
	"stacksync/internal/reclog"
)

// WAL is the metadata store's write-ahead log, standing in for PostgreSQL
// durability: workspace creations and committed item versions, replayed on
// recovery. The file is a record log (DESIGN §20) under walMagic; a record
// is op | codec.Binary(value), the value a Workspace or an ItemVersion.
//
// Appends use the log's durable writer: a committer appends its records
// under its workspace's lock, which fixes per-workspace order, and waits
// after releasing it; a workspace's record is appended before the
// workspace is published, so it precedes every commit to it. The first
// waiter syncs every record appended so far at once (reclog.DirectTail);
// committers that arrive meanwhile share the next sync, so it amortizes
// across concurrent commits.
type WAL struct {
	log *reclog.Writer

	mu      sync.Mutex // orders appends with the tear counter
	scratch []byte     // payload under construction
	// tearIn arms the injected crash: after tearIn more complete records,
	// the file ends halfway through the next. -1 means disarmed.
	tearIn int
}

// walMagic opens every WAL file. It names the codec of the values inside,
// so a codec change or a field-order change of Workspace or ItemVersion
// bumps it.
const walMagic = "SSMDWAL1"

// ErrTornWrite reports an injected torn append: only a prefix of the record
// reached the file, as if the process crashed mid-write. The WAL refuses
// further writes, matching the crash it emulates.
var ErrTornWrite = reclog.ErrTornWrite

// Record types: the payload's first byte.
const (
	walWorkspace byte = iota + 1
	walVersion
)

// TearNext arms a fault: the file ends halfway through the next record,
// then the WAL behaves as crashed. Recovery must drop the torn tail and
// keep every complete record.
func (w *WAL) TearNext() { w.TearAfter(0) }

// TearAfter arms a fault n records ahead: n more records append completely,
// then the file ends halfway through the following record and the WAL
// behaves as crashed. The counter spans fsyncs, so a tear can land inside
// a group-commit batch or exactly on a batch boundary.
func (w *WAL) TearAfter(n int) {
	w.mu.Lock()
	w.tearIn = n
	w.mu.Unlock()
}

// newWAL appends to f, a recovered log ending at end. With a registry it
// counts fsyncs ("flushes") and records, and the records per fsync: the
// group-commit batch size.
func newWAL(f reclog.File, end int64, reg *obs.Registry) *WAL {
	var synced func(int)
	if reg != nil {
		flushes := reg.Counter("metastore_wal_flushes_total")
		records := reg.Counter("metastore_wal_records_total")
		batch := reg.HistogramWith([]float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512}, "metastore_wal_flush_records")
		synced = func(n int) {
			flushes.Inc()
			records.Add(uint64(n))
			batch.Observe(float64(n))
		}
	}
	return &WAL{log: reclog.NewWriter(f, end, true, synced), tearIn: -1}
}

// append logs one record, v a *Workspace or an *ItemVersion. It never
// waits for a sync, so a caller may hold a lock.
func (w *WAL) append(op byte, v any) error {
	if w == nil {
		return nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	p, err := appendRecord(w.scratch[:0], op, v)
	if err != nil {
		return err
	}
	w.scratch = p
	if w.tearIn == 0 {
		w.log.TearAt(w.log.End() + 1 + int64(len(p)/2))
	}
	if w.tearIn >= 0 {
		w.tearIn--
	}
	_, err = w.log.Append(p)
	return err
}

// end returns the offset past the last record appended, to wait on.
func (w *WAL) end() int64 {
	if w == nil {
		return 0
	}
	return w.log.End()
}

// appendRecord appends the payload of one record to dst.
func appendRecord(dst []byte, op byte, v any) ([]byte, error) {
	p, err := codec.Default().MarshalAppend(append(dst, op), v)
	if err != nil {
		return dst, fmt.Errorf("metastore: encode wal record: %w", err)
	}
	return p, nil
}

// wait returns once the log holds everything up to off, fsync'd.
func (w *WAL) wait(off int64) error {
	if w == nil {
		return nil
	}
	return w.log.Wait(off)
}

// Close syncs the log, cuts it after its last record and closes it.
func (w *WAL) Close() error {
	if w == nil {
		return nil
	}
	return w.log.Close()
}

// Recover rebuilds a Store from the log at path, or starts an empty one
// where there is none, and keeps journalling to it. Replay ends at the
// first record that is cut short, fails its checksum or makes no sense — a
// torn tail, including one torn inside a group-commit batch — and the file
// is cut there, so later appends can never follow a partial record.
func Recover(path string, opts ...Option) (*Store, error) {
	s := NewStore(opts...)
	f, end, err := reclog.Open(path, walMagic, s.replay)
	if errors.Is(err, reclog.ErrMagic) {
		return nil, fmt.Errorf("metastore: %w; the JSON-lines WAL of earlier versions is not read", err)
	} else if err != nil {
		return nil, fmt.Errorf("metastore: open wal: %w", err)
	}
	tail, err := reclog.DirectTail(f)
	if err != nil {
		_ = f.Close() // the direct I/O error is the one to report
		return nil, fmt.Errorf("metastore: open wal: %w", err)
	}
	s.wal = newWAL(tail, end, s.reg)
	return s, nil
}

// replay applies one recovered record through the workspace's writer,
// reporting whether it made sense. Conflicts and duplicates are tolerated:
// a log written before replayed proposals stopped appending can hold a
// re-acknowledged version twice.
func (s *Store) replay(p []byte, _ int64) bool {
	if len(p) == 0 {
		return false
	}
	switch p[0] {
	case walWorkspace:
		var ws Workspace
		if codec.Default().Unmarshal(p[1:], &ws) != nil {
			return false
		}
		err := s.CreateWorkspace(ws)
		return err == nil || errors.Is(err, ErrWorkspaceExists)
	case walVersion:
		var v ItemVersion
		if codec.Default().Unmarshal(p[1:], &v) != nil {
			return false
		}
		return s.write(v.Workspace, func(wr *wsWrite) error {
			wr.commit(v)
			return nil
		}) == nil
	}
	return false
}

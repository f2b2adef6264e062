package reclog

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"sync"
)

// File is the seam a Writer appends through: the mapped tail of a log file
// (MapTail), an aligned buffer written out with direct I/O (DirectTail), or
// a test's stand-in. The Writer never calls two of its methods at once.
type File interface {
	// Map preallocates the file's bytes [off, off+n), off page-aligned, and
	// returns a window onto them, holding what is stored there already, in
	// place of the one it returned last.
	Map(off int64, n int) ([]byte, error)
	// Sync makes everything stored through the windows, up to end, durable.
	Sync(end int64) error
	// Close writes out what is stored before end and not yet in the file,
	// drops the window, cuts the file at end and closes it.
	Close(end int64) error
}

var (
	// ErrClosed is the error of every append after Close.
	ErrClosed = errors.New("reclog: log closed")
	// ErrTornWrite stops a log whose file was made to end inside a record
	// (TearAt), as a crash in the middle of a write leaves it.
	ErrTornWrite = errors.New("reclog: torn write (injected crash)")
)

// window is how much of a log's tail a Writer maps and preallocates at a
// time; a record larger than that maps its own length.
const window = 4 << 20

var pageSize = int64(os.Getpagesize())

// Writer appends records to a log by framing each into a window of the
// file's preallocated tail under its mutex, which fixes their order. Through
// MapTail a record is in the page cache, so in the file, once Append
// returns: it survives a crash of the process. A durable writer's Wait(off)
// also makes it survive a crash of the machine: with no sync running the
// caller becomes the syncer, one Sync for every record stored so far, and
// otherwise it shares the next one. The first grow or sync error is sticky:
// every later Append and Wait returns it, since what follows a record the
// kernel may have dropped must not be acknowledged.
type Writer struct {
	mu      sync.Mutex
	cond    *sync.Cond // signalled after every sync
	f       File
	durable bool
	synced  func(records int) // after each sync that succeeds; may be nil
	win     []byte            // the mapped window of the file's tail
	base    int64             // file offset of win[0]
	end     int64             // file offset past the last byte stored
	done    int64             // file offset up to which Wait acknowledges
	records int               // records stored and not yet synced
	tear    int64             // if > 0, where the file ends (TearAt)
	syncing bool              // a syncer is running
	err     error             // sticky: the first grow or sync error, ErrTornWrite or ErrClosed
}

// NewWriter appends to f, which ends at end. A durable writer acknowledges
// a record once it is fsync'd; synced, if not nil, is called with the
// number of records of each sync that succeeds.
func NewWriter(f File, end int64, durable bool, synced func(records int)) *Writer {
	w := &Writer{f: f, durable: durable, synced: synced, end: end, done: end}
	w.cond = sync.NewCond(&w.mu)
	return w
}

// Append stores the record whose payload is parts, concatenated, in the
// file, framing the parts straight into the mapping, and returns the offset
// just past it, to Wait on, or the error that stopped the log.
func (w *Writer) Append(parts ...[]byte) (int64, error) {
	size := 0
	for _, p := range parts {
		size += len(p)
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	// The room Frame grows its buffer by, so it frames in place.
	room := int64(binary.MaxVarintLen64 + size + 4)
	for w.err == nil && w.end+room > w.base+int64(len(w.win)) {
		if w.syncing {
			w.cond.Wait() // the running Sync may be reading the window Map drops
			continue
		}
		base := w.end &^ (pageSize - 1)
		n := max(window, (w.end-base+room+pageSize-1)&^(pageSize-1))
		win, err := w.f.Map(base, int(n))
		if err != nil {
			w.win, w.err = nil, fmt.Errorf("reclog: grow: %w", err)
			break
		}
		w.win, w.base = win, base
	}
	if w.err != nil {
		return 0, w.err
	}
	i := w.end - w.base
	rec := Frame(w.win[i:i], parts...)
	if w.tear > 0 && w.end+int64(len(rec)) > w.tear {
		clear(rec[w.tear-w.end:])
		w.done, w.end, w.err = w.end, w.tear, ErrTornWrite
		return 0, w.err
	}
	w.end += int64(len(rec))
	w.records++
	if !w.durable {
		w.done = w.end
	}
	return w.end, nil
}

// ReadAt copies into p the stored bytes of the file at off, if they are
// all in the current window, and reports whether it did: it returns false
// for a range outside it and once the log is closed.
func (w *Writer) ReadAt(p []byte, off int64) bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.win == nil || off < w.base || off+int64(len(p)) > w.end {
		return false
	}
	copy(p, w.win[off-w.base:])
	return true
}

// End returns the offset at which the next record appended will start.
func (w *Writer) End() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.end
}

// TearAt makes the file end at off, at or past End: the record that
// crosses off is stored only up to it, and the log stops with
// ErrTornWrite.
func (w *Writer) TearAt(off int64) {
	w.mu.Lock()
	w.tear = off
	w.mu.Unlock()
}

// Wait returns once everything up to off, an offset Append returned, is
// acknowledged — stored, and fsync'd if the writer is durable — or with
// the error that prevented it. Offset 0 is no record.
func (w *Writer) Wait(off int64) error {
	if off == 0 {
		return nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	for w.done < off && w.err == nil {
		if w.syncing {
			w.cond.Wait()
			continue
		}
		w.syncing = true
		to, records := w.end, w.records
		w.records = 0
		w.mu.Unlock()
		err := w.f.Sync(to)
		w.mu.Lock()
		if err != nil {
			w.err = fmt.Errorf("reclog: sync: %w", err)
		} else {
			w.done = max(w.done, to)
			if w.synced != nil {
				w.synced(records)
			}
		}
		w.syncing = false
		w.cond.Broadcast()
	}
	if w.done >= off {
		return nil
	}
	return w.err
}

// Close syncs what a durable writer stored, so a Wait still to come on it
// succeeds, cuts the file after its last record, closes it and returns the
// log's first error, if it has one. Close again returns nil.
func (w *Writer) Close() error {
	if w.durable {
		_ = w.Wait(w.End()) // a sync error is the log's, returned below
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	for w.syncing {
		w.cond.Wait()
	}
	if w.f == nil {
		return nil
	}
	err := w.err
	if cerr := w.f.Close(w.end); err == nil && cerr != nil {
		err = fmt.Errorf("reclog: close: %w", cerr)
	}
	w.f, w.win, w.err = nil, nil, ErrClosed
	return err
}

package reclog

import (
	"errors"
	"fmt"
	"sync"
)

// File is what a Writer writes to: an *os.File, or a test's stand-in.
type File interface {
	Write([]byte) (int, error)
	Sync() error
	Close() error
}

var (
	// ErrClosed is the error of every append after Close.
	ErrClosed = errors.New("reclog: log closed")
	// ErrTornWrite stops a log whose file was made to end inside a record
	// (TearAt), as a crash in the middle of a write leaves it.
	ErrTornWrite = errors.New("reclog: torn write (injected crash)")
)

// Writer is the group writer of a log. Append frames a record onto a buffer
// under the writer's mutex, which fixes the order of records, and returns
// the offset just past it. Wait(off) returns once the file holds everything
// up to off: if no flush is running the caller becomes the flusher, writing
// out the buffer until it runs dry, and otherwise it shares the running
// flusher's next write. Each such drain is one write(2), followed by one
// fsync when the writer is durable. The first write or sync error is
// sticky: the drain it ends reports it and so does every later Append and
// Wait, since what follows a record the kernel may have dropped must not
// be acknowledged.
type Writer struct {
	mu       sync.Mutex
	cond     *sync.Cond // signalled after every drain
	f        File
	durable  bool
	drained  func(records int) // after each drain that succeeds; may be nil
	buf      []byte            // framed records not yet handed to a flusher
	records  int               // records in buf
	appended int64             // file offset past the last record appended
	written  int64             // file offset past the last byte written
	tear     int64             // if > 0, where the file ends (TearAt)
	flushing bool              // a flusher is running
	err      error             // sticky: the first write or sync error, ErrTornWrite or ErrClosed
}

// NewWriter appends to f, which ends at end. A durable writer fsyncs after
// each write; drained, if not nil, is called with the number of records of
// each drain that succeeds.
func NewWriter(f File, end int64, durable bool, drained func(records int)) *Writer {
	w := &Writer{f: f, durable: durable, drained: drained, appended: end, written: end}
	w.cond = sync.NewCond(&w.mu)
	return w
}

// Append frames payload onto the buffer and returns the offset to Wait on,
// or the error that has already stopped the log.
func (w *Writer) Append(payload []byte) (int64, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return 0, w.err
	}
	n := len(w.buf)
	w.buf = Frame(w.buf, payload)
	w.appended += int64(len(w.buf) - n)
	w.records++
	return w.appended, nil
}

// End returns the offset at which the next record appended will start.
func (w *Writer) End() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.appended
}

// TearAt makes the file end at off, at or past End: the drain that reaches
// off writes the bytes before it and stops the log with ErrTornWrite.
func (w *Writer) TearAt(off int64) {
	w.mu.Lock()
	w.tear = off
	w.mu.Unlock()
}

// Wait returns once everything up to off, an offset Append returned, is in
// the file, or with the error that prevented it. Offset 0 is no record.
func (w *Writer) Wait(off int64) error {
	if off == 0 {
		return nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	for w.written < off && w.err == nil {
		if w.flushing {
			w.cond.Wait()
		} else {
			w.drainLocked()
		}
	}
	if w.written >= off {
		return nil
	}
	return w.err
}

// Flush writes out what is buffered and reports the log's error, if it has
// one. It is for records nobody waits on: if a flusher is running it
// returns at once, since that flusher's loop takes them along.
func (w *Writer) Flush() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if !w.flushing {
		w.drainLocked()
	}
	return w.err
}

// drainLocked is the flusher: it writes the buffer out until it runs dry.
// The caller holds w.mu and has seen w.flushing false; setting it keeps
// everyone else out while the mutex is released across each write.
func (w *Writer) drainLocked() {
	w.flushing = true
	for len(w.buf) > 0 && w.err == nil {
		batch, records := w.buf, w.records
		w.buf, w.records = nil, 0 // batch is the flusher's alone; appends start a new array
		torn := w.tear > 0 && w.written+int64(len(batch)) > w.tear
		if torn {
			batch = batch[:w.tear-w.written]
		}
		w.mu.Unlock()
		_, err := w.f.Write(batch)
		if err != nil {
			err = fmt.Errorf("reclog: write: %w", err)
		} else if w.durable && !torn {
			if err = w.f.Sync(); err != nil {
				err = fmt.Errorf("reclog: sync: %w", err)
			}
		}
		w.mu.Lock()
		switch {
		case err != nil:
			w.err = err
		case torn:
			w.written += int64(len(batch))
			w.err = ErrTornWrite
		default:
			w.written += int64(len(batch))
			if w.drained != nil {
				w.drained(records)
			}
		}
		w.cond.Broadcast()
	}
	w.flushing = false
}

// Close writes out what is buffered, closes the file and returns the log's
// first error, if it has one. Close again returns nil.
func (w *Writer) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	for w.flushing {
		w.cond.Wait()
	}
	if w.f == nil {
		return nil
	}
	w.drainLocked()
	err := w.err
	if cerr := w.f.Close(); err == nil && cerr != nil {
		err = fmt.Errorf("reclog: close: %w", cerr)
	}
	w.f, w.err = nil, ErrClosed
	return err
}

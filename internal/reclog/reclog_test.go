package reclog

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

const magic = "TESTLOG1"

// memFile is a File in memory: Map grows data and returns a window into
// it. failSync and failMap, when set, are the error of the next Sync or
// Map, which then clears it.
type memFile struct {
	mu                sync.Mutex
	data              []byte
	maps, syncs       int
	failSync, failMap error
}

func (m *memFile) Map(off int64, n int) ([]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.failMap; err != nil {
		m.failMap = nil
		return nil, err
	}
	if grow := int(off) + n - len(m.data); grow > 0 {
		m.data = append(m.data, make([]byte, grow)...)
	}
	m.maps++
	return m.data[off : off+int64(n) : off+int64(n)], nil
}

func (m *memFile) Sync(int64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.syncs++
	err := m.failSync
	m.failSync = nil
	return err
}

func (m *memFile) Close(end int64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.data = m.data[:end]
	return nil
}

func newMem() (*memFile, int64) { return &memFile{data: []byte(magic)}, int64(len(magic)) }

// collect is an apply that keeps every payload and its offset.
type collect struct {
	payloads [][]byte
	offs     []int64
}

func (c *collect) apply(p []byte, off int64) bool {
	c.payloads = append(c.payloads, bytes.Clone(p))
	c.offs = append(c.offs, off)
	return true
}

func writeLog(t *testing.T, data []byte) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "test.log")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func openT(t *testing.T, path string, apply func([]byte, int64) bool) int64 {
	t.Helper()
	f, end, err := Open(path, magic, apply)
	if err != nil {
		t.Fatal(err)
	}
	_ = f.Close()
	return end
}

func TestOpenRefusesOtherMagic(t *testing.T) {
	old := []byte(`{"op":"x"}` + "\n")
	path := writeLog(t, old)
	_, _, err := Open(path, magic, (&collect{}).apply)
	if !errors.Is(err, ErrMagic) || !strings.Contains(err.Error(), path) || !strings.Contains(err.Error(), magic) {
		t.Fatalf("got %v, want ErrMagic naming the file and %q", err, magic)
	}
	if data, _ := os.ReadFile(path); !bytes.Equal(data, old) {
		t.Fatal("refused file was modified")
	}
}

// TestOpenReplaysAndCutsTornTail: every whole record reaches apply with the
// offset of its payload; a record cut short ends the replay and is cut off,
// and so is a record apply refuses, with everything after it.
func TestOpenReplaysAndCutsTornTail(t *testing.T) {
	want := [][]byte{[]byte("one"), []byte("two"), bytes.Repeat([]byte("x"), 300)}
	data := []byte(magic)
	for _, p := range want {
		data = Frame(data, p)
	}
	whole := int64(len(data))
	torn := Frame(nil, []byte("torn"))
	path := writeLog(t, append(data, torn[:len(torn)-1]...))

	var c collect
	if end := openT(t, path, c.apply); end != whole {
		t.Fatalf("end %d, want %d", end, whole)
	}
	if len(c.payloads) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(c.payloads), len(want))
	}
	for i, p := range want {
		if !bytes.Equal(c.payloads[i], p) || !bytes.Equal(data[c.offs[i]:c.offs[i]+int64(len(p))], p) {
			t.Fatalf("record %d: payload %q at %d", i, c.payloads[i], c.offs[i])
		}
	}
	if info, _ := os.Stat(path); info.Size() != whole {
		t.Fatalf("file is %d bytes after the cut, want %d", info.Size(), whole)
	}

	n := 0
	firstOnly := func([]byte, int64) bool { n++; return n == 1 }
	if end := openT(t, path, firstOnly); end != c.offs[1]-1 {
		t.Fatalf("end %d after a refused second record, want %d", end, c.offs[1]-1)
	}
}

// TestOpenStartsAfreshOnShortMagic: a file holding a prefix of the magic,
// as a crash while creating it leaves one, opens empty with the whole magic.
func TestOpenStartsAfreshOnShortMagic(t *testing.T) {
	path := writeLog(t, []byte(magic[:3]))
	if end := openT(t, path, (&collect{}).apply); end != int64(len(magic)) {
		t.Fatalf("end %d", end)
	}
	if data, _ := os.ReadFile(path); string(data) != magic {
		t.Fatalf("file holds %q", data)
	}
}

func TestDecoder(t *testing.T) {
	p := AppendString(AppendString([]byte{7}, "ab"), "")
	d := NewDecoder(p)
	if d.Uvarint() != 7 || d.Str() != "ab" || d.Str() != "" || !d.Done() {
		t.Fatal("fields did not read back")
	}
	d = NewDecoder([]byte{5, 'a'})
	if d.Str() != "" || d.OK() {
		t.Fatal("a string past the end read as whole")
	}
}

// TestOpenEndsAtZeroTail: a zero length prefix is the end of the log, as
// the zero-filled tail a Writer preallocates reads, and Open cuts it off.
// A zero-length record, whose bytes are all zero, cannot be framed.
func TestOpenEndsAtZeroTail(t *testing.T) {
	data := Frame([]byte(magic), []byte("whole"))
	whole := int64(len(data))
	path := writeLog(t, append(data, make([]byte, 4096)...))
	var c collect
	if end := openT(t, path, c.apply); end != whole || len(c.payloads) != 1 {
		t.Fatalf("end %d with %d records, want %d with 1", end, len(c.payloads), whole)
	}
	if info, _ := os.Stat(path); info.Size() != whole {
		t.Fatalf("file is %d bytes after the cut, want %d", info.Size(), whole)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Frame framed an empty payload")
		}
	}()
	Frame(nil, nil, []byte{})
}

// TestWriterTailIsCutAtOpenAndClose: a log abandoned without Close, as
// kill -9 leaves it, holds its records and then the zero tail the writer
// preallocated; reopened, it replays exactly its records and is cut after
// them. A log closed cleanly has no tail.
func TestWriterTailIsCutAtOpenAndClose(t *testing.T) {
	path := filepath.Join(t.TempDir(), "test.log")
	f, err := Create(path, magic)
	if err != nil {
		t.Fatal(err)
	}
	w := NewWriter(MapTail(f), int64(len(magic)), false, nil)
	want := []string{"one", "two", strings.Repeat("three", 1000)}
	for _, p := range want {
		if _, err := w.Append([]byte(p)); err != nil {
			t.Fatal(err)
		}
	}
	end := w.End()
	abandoned, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(abandoned)) <= end {
		t.Fatalf("open log is %d bytes, its records end at %d: no preallocated tail", len(abandoned), end)
	}
	var c collect
	if got := openT(t, writeLog(t, abandoned), c.apply); got != end || len(c.payloads) != len(want) {
		t.Fatalf("abandoned log replays to %d with %d records, want %d with %d", got, len(c.payloads), end, len(want))
	}
	for i, p := range want {
		if string(c.payloads[i]) != p {
			t.Fatalf("record %d replays as %.20q", i, c.payloads[i])
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if info, _ := os.Stat(path); info.Size() != end {
		t.Fatalf("closed log is %d bytes, its records end at %d", info.Size(), end)
	}
}

// TestWriterSyncErrorIsSticky: once a sync fails, the records it covered
// are not acknowledged, and neither is anything after: every later Append
// and Wait returns the error, though the next sync would succeed. A grow
// that fails stops the log the same way, before its record is stored.
func TestWriterSyncErrorIsSticky(t *testing.T) {
	m, end := newMem()
	w := NewWriter(m, end, true, nil)
	off, err := w.Append([]byte("first"))
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Wait(off); err != nil {
		t.Fatal(err)
	}
	injected := errors.New("injected sync failure")
	m.failSync = injected
	second, _ := w.Append([]byte("second"))
	if err := w.Wait(second); !errors.Is(err, injected) {
		t.Fatalf("wait on the failed sync: %v", err)
	}
	if _, err := w.Append([]byte("third")); !errors.Is(err, injected) {
		t.Fatalf("append after the failed sync: %v", err)
	}
	if err := w.Wait(second); !errors.Is(err, injected) {
		t.Fatalf("wait again: %v", err)
	}
	if err := w.Wait(off); err != nil {
		t.Fatalf("wait on a record synced before the failure: %v", err)
	}
	if err := w.Close(); !errors.Is(err, injected) {
		t.Fatalf("close: %v", err)
	}

	m, end = newMem()
	w = NewWriter(m, end, false, nil)
	if _, err := w.Append([]byte("first")); err != nil {
		t.Fatal(err)
	}
	injected = errors.New("injected grow failure")
	m.failMap = injected
	if _, err := w.Append(bytes.Repeat([]byte("x"), window)); !errors.Is(err, injected) {
		t.Fatalf("append past the window with a failing grow: %v", err)
	}
	if _, err := w.Append([]byte("small")); !errors.Is(err, injected) {
		t.Fatalf("append after the failed grow: %v", err)
	}
	if err := w.Close(); !errors.Is(err, injected) {
		t.Fatalf("close: %v", err)
	}
	var c collect
	if openT(t, writeLog(t, m.data), c.apply); len(c.payloads) != 1 {
		t.Fatalf("%d records replay after the failed grow, want 1", len(c.payloads))
	}
}

// TestWriterCloseSyncsStoredRecords: Close fsyncs what a durable writer
// stored, so a committer that appended before Close and waits after it is
// acknowledged, not told the log is closed.
func TestWriterCloseSyncsStoredRecords(t *testing.T) {
	m, end := newMem()
	w := NewWriter(m, end, true, nil)
	off, err := w.Append([]byte("stored"))
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Wait(off); err != nil || m.syncs != 1 {
		t.Fatalf("wait after close: %v with %d syncs, want nil after one", err, m.syncs)
	}
	if _, err := w.Append([]byte("late")); !errors.Is(err, ErrClosed) {
		t.Fatalf("append after close: %v", err)
	}
}

// directTail returns the direct File over f, failing the test where the
// file system refuses direct I/O and DirectTail falls back to MapTail.
func directTail(t *testing.T, f *os.File) File {
	t.Helper()
	d, err := DirectTail(f)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := d.(*tail); ok {
		t.Fatalf("DirectTail(%s) fell back to a mapped tail: the file system refuses direct I/O", f.Name())
	}
	return d
}

// TestWriterConcurrentAppendWait: many goroutines append and wait. Each
// Wait returns only once a sync has covered its record, every sync covers
// every record stored before it began, and the file replays to every
// record, each writer's in its order: in memory, where every sync is
// counted, and through the direct File, which writes only at a sync.
func TestWriterConcurrentAppendWait(t *testing.T) {
	t.Run("mem", func(t *testing.T) {
		m, end := newMem()
		syncs := concurrentAppendWait(t, m, end)
		if m.syncs != syncs || m.maps != 1 {
			t.Fatalf("%d syncs, %d Syncs of the file, %d maps; want one per sync, one map", syncs, m.syncs, m.maps)
		}
		replayWriters(t, writeLog(t, m.data))
	})
	t.Run("direct", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "test.log")
		f, err := Create(path, magic)
		if err != nil {
			t.Fatal(err)
		}
		concurrentAppendWait(t, directTail(t, f), int64(len(magic)))
		replayWriters(t, path)
	})
}

const appendWaiters, appendWaitEach = 8, 200

// concurrentAppendWait drives appendWaiters goroutines, each appending
// appendWaitEach records "g:i" to f and waiting on each, then closes the
// writer and returns how many syncs it made.
func concurrentAppendWait(t *testing.T, f File, end int64) int {
	var syncs, synced int // written by the callback, under the writer's mutex
	w := NewWriter(f, end, true, func(n int) { syncs++; synced += n })
	var order sync.Mutex // appends in rank order
	appended := 0
	var wg sync.WaitGroup
	for g := 0; g < appendWaiters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < appendWaitEach; i++ {
				order.Lock()
				off, err := w.Append([]byte(fmt.Sprintf("%d:%d", g, i)))
				appended++
				rank := appended
				order.Unlock()
				if err == nil {
					err = w.Wait(off)
				}
				if err != nil {
					t.Error(err)
					return
				}
				w.mu.Lock() // synced is the writer's to guard
				n := synced
				w.mu.Unlock()
				if n < rank {
					t.Errorf("wait returned with %d records synced, before its record, number %d", n, rank)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if synced != appendWaiters*appendWaitEach {
		t.Fatalf("%d records synced, want %d", synced, appendWaiters*appendWaitEach)
	}
	return syncs
}

// replayWriters replays the log concurrentAppendWait wrote at path and
// checks that every writer's records are there, in its order.
func replayWriters(t *testing.T, path string) {
	t.Helper()
	next := make([]int, appendWaiters)
	record := func(p []byte, _ int64) bool {
		var g, i int
		if _, err := fmt.Sscanf(string(p), "%d:%d", &g, &i); err != nil || i != next[g] {
			t.Fatalf("record %q out of order (writer %d expects %d)", p, g, next[g])
		}
		next[g]++
		return true
	}
	openT(t, path, record)
	for g, n := range next {
		if n != appendWaitEach {
			t.Fatalf("writer %d: %d records replayed, want %d", g, n, appendWaitEach)
		}
	}
}

// TestWriterCrossesWindows: goroutines append to one file at once, records
// of up to a quarter window and, among them, some larger than a window, so
// the tail is remapped several times, once for a record that needs a
// window of its own length. Every record replays whole and in each
// writer's order. Through the direct File the writer is durable and every
// other record is waited on, so syncs run beside the grows.
func TestWriterCrossesWindows(t *testing.T) {
	t.Run("mapped", func(t *testing.T) { crossWindows(t, MapTail, false) })
	t.Run("direct", func(t *testing.T) {
		crossWindows(t, func(f *os.File) File { return directTail(t, f) }, true)
	})
}

func crossWindows(t *testing.T, tail func(*os.File) File, durable bool) {
	const writers, each, big = 3, 8, 5
	path := filepath.Join(t.TempDir(), "test.log")
	f, err := Create(path, magic)
	if err != nil {
		t.Fatal(err)
	}
	w := NewWriter(tail(f), int64(len(magic)), durable, nil)
	size := func(g, i int) int {
		if i == big {
			return window + 1000*g + 1
		}
		return 2 + (g*7919+i*104729)%(window/4)
	}
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				p := bytes.Repeat([]byte{byte(g*31 + i)}, size(g, i))
				p[0], p[1] = byte(g), byte(i)
				off, err := w.Append(p)
				if err == nil && durable && i%2 == 1 {
					err = w.Wait(off)
				}
				if err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	end := w.End()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if end < 4*window {
		t.Fatalf("%d bytes appended cross too few windows", end)
	}
	next := make([]int, writers)
	record := func(p []byte, _ int64) bool {
		g, i := int(p[0]), int(p[1])
		if g >= writers || i != next[g] || len(p) != size(g, i) || bytes.Count(p[2:], []byte{byte(g*31 + i)}) != len(p)-2 {
			t.Fatalf("record of %d bytes (writer %d, number %d) is not whole or out of order", len(p), g, i)
		}
		next[g]++
		return true
	}
	if got := openT(t, path, record); got != end {
		t.Fatalf("replay ends at %d, want %d", got, end)
	}
	for g, n := range next {
		if n != each {
			t.Fatalf("writer %d: %d records replayed, want %d", g, n, each)
		}
	}
}

// TestWriterTearAt: the file ends where TearAt says; records wholly before
// it are acknowledged, the torn one and every later one fail with
// ErrTornWrite, and the file replays to the whole records.
func TestWriterTearAt(t *testing.T) {
	m, end := newMem()
	w := NewWriter(m, end, true, nil)
	first, _ := w.Append([]byte("whole"))
	tear := w.End() + 4
	w.TearAt(tear)
	if _, err := w.Append([]byte("torn in half")); !errors.Is(err, ErrTornWrite) {
		t.Fatalf("append of the torn record: %v", err)
	}
	if _, err := w.Append([]byte("never written")); !errors.Is(err, ErrTornWrite) {
		t.Fatalf("append after the tear: %v", err)
	}
	if err := w.Wait(first); err != nil {
		t.Fatalf("wait before the tear: %v", err)
	}
	if err := w.Wait(tear); !errors.Is(err, ErrTornWrite) {
		t.Fatalf("wait past the tear: %v", err)
	}
	if w.End() != tear {
		t.Fatalf("log ends at %d, want %d", w.End(), tear)
	}
	if err := w.Close(); !errors.Is(err, ErrTornWrite) {
		t.Fatalf("close: %v", err)
	}
	if int64(len(m.data)) != tear || !bytes.Equal(m.data[first:], Frame(nil, []byte("torn in half"))[:tear-first]) {
		t.Fatalf("file ends at %d with %q, want the torn record's first %d bytes at %d", len(m.data), m.data[first:], tear-first, tear)
	}
	var c collect
	if got := openT(t, writeLog(t, m.data), c.apply); got != first || len(c.payloads) != 1 {
		t.Fatalf("replay ends at %d with %d records, want %d with 1", got, len(c.payloads), first)
	}
}

// TestSecondOpenOfLiveLogIsRefused: while one open holds a log, a second
// Open of its path is refused with an error naming the file, and the file
// is left untouched: a second replay would cut it after its last record,
// under the first opener's mapping. Once the first opener closes, Open
// succeeds and replays every record.
func TestSecondOpenOfLiveLogIsRefused(t *testing.T) {
	path := filepath.Join(t.TempDir(), "test.log")
	f, err := Create(path, magic)
	if err != nil {
		t.Fatal(err)
	}
	w := NewWriter(MapTail(f), int64(len(magic)), false, nil)
	if _, err := w.Append([]byte("first")); err != nil {
		t.Fatal(err)
	}
	held, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if second, _, err := Open(path, magic, (&collect{}).apply); !errors.Is(err, ErrInUse) || !strings.Contains(err.Error(), path) {
		if second != nil {
			_ = second.Close()
		}
		t.Fatalf("second open of a live log: %v, want ErrInUse naming %s", err, path)
	}
	if now, _ := os.ReadFile(path); !bytes.Equal(now, held) {
		t.Fatalf("the refused open changed the file: %d bytes, was %d", len(now), len(held))
	}
	if _, err := w.Append(bytes.Repeat([]byte("x"), 2*int(pageSize))); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	var c collect
	if openT(t, path, c.apply); len(c.payloads) != 2 {
		t.Fatalf("%d records replay after the first opener closed, want 2", len(c.payloads))
	}
}

// TestWriterReadAtAcrossWindows: goroutines append records to one mapped
// file, some larger than a window, so the tail is remapped many times,
// while readers ask ReadAt for records already stored. Every read that
// returns true holds exactly its record's payload and CRC; a record whose
// window has moved on, a range past the end and any read after Close
// return false.
func TestWriterReadAtAcrossWindows(t *testing.T) {
	const writers, each, readers = 3, 12, 3
	path := filepath.Join(t.TempDir(), "test.log")
	f, err := Create(path, magic)
	if err != nil {
		t.Fatal(err)
	}
	w := NewWriter(MapTail(f), int64(len(magic)), false, nil)
	// want[g][i] is writer g's record i as stored: its payload, then its CRC.
	want := make([][][]byte, writers)
	for g := range want {
		for i := 0; i < each; i++ {
			n := 2 + (g*7919+i*104729)%(window/8)
			if i%5 == 4 {
				n = window + 1000*g + 1
			}
			p := bytes.Repeat([]byte{byte(g*31 + i)}, n)
			p[0], p[1] = byte(g), byte(i)
			rec := Frame(nil, p)
			want[g] = append(want[g], rec[len(rec)-n-4:])
		}
	}
	type stored struct {
		g, i int
		off  int64 // of the payload
	}
	var mu sync.Mutex
	var log []stored
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i, rec := range want[g] {
				p := rec[:len(rec)-4]
				end, err := w.Append(p[:1], p[1:]) // two parts, framed as one payload
				if err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				log = append(log, stored{g, i, end - int64(len(rec))})
				mu.Unlock()
			}
		}(g)
	}
	done := make(chan struct{})
	var hits, misses [readers]int
	var rg sync.WaitGroup
	for r := 0; r < readers; r++ {
		rg.Add(1)
		go func(r int) {
			defer rg.Done()
			for k := 0; ; k++ {
				finished := false
				select {
				case <-done:
					finished = true
				default:
				}
				mu.Lock()
				n := len(log)
				// The newest record and an older one in turn; the last read,
				// after every append, is of the newest, which is in the window.
				var s stored
				if n > 0 {
					s = log[n-1]
					if !finished && k%2 == 1 {
						s = log[k%n]
					}
				}
				mu.Unlock()
				if n > 0 {
					got := make([]byte, len(want[s.g][s.i]))
					if !w.ReadAt(got, s.off) {
						misses[r]++
					} else if hits[r]++; !bytes.Equal(got, want[s.g][s.i]) {
						t.Errorf("ReadAt of writer %d's record %d at %d returned other bytes", s.g, s.i, s.off)
						return
					}
				}
				if finished {
					return
				}
			}
		}(r)
	}
	wg.Wait()
	close(done)
	rg.Wait()
	t.Logf("reads returning true %v, false %v", hits, misses)
	for r := range hits {
		if hits[r] == 0 {
			t.Fatalf("reader %d: no read returned true (%d false)", r, misses[r])
		}
	}
	if w.ReadAt(make([]byte, 1), int64(len(magic))) {
		t.Fatal("ReadAt of the first record, many windows behind, returned true")
	}
	end := w.End()
	if w.ReadAt(make([]byte, 2), end-1) {
		t.Fatal("ReadAt past the end returned true")
	}
	if !w.ReadAt(make([]byte, 1), end-1) {
		t.Fatal("ReadAt of the last stored byte returned false")
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if w.ReadAt(make([]byte, 1), end-1) {
		t.Fatal("ReadAt after Close returned true")
	}
}

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

// memFile is a File in memory. failSync, when set, is the error of the
// next Sync, which then clears it.
type memFile struct {
	mu            sync.Mutex
	data          []byte
	writes, syncs int
	failSync      error
}

func (m *memFile) Write(p []byte) (int, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.data = append(m.data, p...)
	m.writes++
	return len(p), nil
}

func (m *memFile) Sync() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.syncs++
	err := m.failSync
	m.failSync = nil
	return err
}

func (m *memFile) Close() error { return nil }

func (m *memFile) len() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return int64(len(m.data))
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
	want := [][]byte{[]byte("one"), {}, bytes.Repeat([]byte("x"), 300)}
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

// TestWriterSyncErrorIsSticky: once a sync fails, the records of that
// drain are not acknowledged, and neither is anything after: every later
// Append and Wait returns the error, though the next sync would succeed.
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
	off, _ = w.Append([]byte("second"))
	if err := w.Wait(off); !errors.Is(err, injected) {
		t.Fatalf("wait on the failed drain: %v", err)
	}
	if _, err := w.Append([]byte("third")); !errors.Is(err, injected) {
		t.Fatalf("append after the failed sync: %v", err)
	}
	if err := w.Wait(off); !errors.Is(err, injected) {
		t.Fatalf("wait again: %v", err)
	}
	if err := w.Flush(); !errors.Is(err, injected) {
		t.Fatalf("flush: %v", err)
	}
	if err := w.Close(); !errors.Is(err, injected) {
		t.Fatalf("close: %v", err)
	}
}

// TestWriterConcurrentAppendWait: many goroutines append and wait. Each
// Wait returns only once the file holds its record, a durable drain is one
// write and one sync, and the file replays to every record, each writer's
// in its order.
func TestWriterConcurrentAppendWait(t *testing.T) {
	const writers, each = 8, 200
	m, end := newMem()
	var drains, drained int
	w := NewWriter(m, end, true, func(n int) { drains++; drained += n })
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				off, err := w.Append([]byte(fmt.Sprintf("%d:%d", g, i)))
				if err == nil {
					err = w.Wait(off)
				}
				if err != nil {
					t.Error(err)
					return
				}
				if n := m.len(); n < off {
					t.Errorf("wait returned at file length %d, before its record's end %d", n, off)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if drained != writers*each || m.writes != drains || m.syncs != drains {
		t.Fatalf("%d records in %d drains, %d writes, %d syncs; want %d records, one write and sync per drain",
			drained, drains, m.writes, m.syncs, writers*each)
	}
	next := make([]int, writers)
	record := func(p []byte, _ int64) bool {
		var g, i int
		if _, err := fmt.Sscanf(string(p), "%d:%d", &g, &i); err != nil || i != next[g] {
			t.Fatalf("record %q out of order (writer %d expects %d)", p, g, next[g])
		}
		next[g]++
		return true
	}
	openT(t, writeLog(t, m.data), record)
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
	second, _ := w.Append([]byte("torn in half"))
	third, _ := w.Append([]byte("never written"))
	if err := w.Wait(third); !errors.Is(err, ErrTornWrite) {
		t.Fatalf("wait past the tear: %v", err)
	}
	if err := w.Wait(first); err != nil {
		t.Fatalf("wait before the tear: %v", err)
	}
	if err := w.Wait(second); !errors.Is(err, ErrTornWrite) {
		t.Fatalf("wait on the torn record: %v", err)
	}
	if _, err := w.Append([]byte("after")); !errors.Is(err, ErrTornWrite) {
		t.Fatalf("append after the tear: %v", err)
	}
	if m.len() != tear {
		t.Fatalf("file ends at %d, want %d", m.len(), tear)
	}
	var c collect
	if got := openT(t, writeLog(t, m.data), c.apply); got != first || len(c.payloads) != 1 {
		t.Fatalf("replay ends at %d with %d records, want %d with 1", got, len(c.payloads), first)
	}
}

package metastore

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"stacksync/internal/obs"
)

// TestWALCommitWritesSectorsNotPages: a serial commit, one group of one
// record, writes the WAL's dirty sectors with direct I/O, so the process is
// charged well under a page of write_bytes per commit; a mapped tail's
// fsync charges a whole page (~4,240 B). The count is the whole process's,
// so the fewest of three tries is taken.
func TestWALCommitWritesSectorsNotPages(t *testing.T) {
	if _, err := os.Stat("/proc/self/io"); err != nil {
		t.Skip("reads write_bytes in /proc/self/io, which this platform lacks")
	}
	const commits = 200
	fewest := int64(-1)
	for try := 0; try < 3; try++ {
		s, err := Recover(filepath.Join(t.TempDir(), "meta.wal"))
		if err != nil {
			t.Fatal(err)
		}
		newWS(t, s, "ws", "alice")
		before := obs.ProcessIO("write_bytes")
		for v := uint64(1); v <= commits; v++ {
			if _, err := s.CommitVersion(ver("ws", "f", v, Modified)); err != nil {
				t.Fatal(err)
			}
		}
		perCommit := (obs.ProcessIO("write_bytes") - before) / commits
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		if fewest < 0 || perCommit < fewest {
			fewest = perCommit
		}
	}
	t.Logf("fewest write_bytes per commit of 3 tries: %d", fewest)
	if fewest > 1024 {
		t.Fatalf("%d B of write_bytes per commit, want at most 1,024: is the WAL on a mapped tail, not direct I/O?", fewest)
	}
}

// gatedFile is a WAL file in memory whose Sync blocks until the test sends
// its outcome on release; syncing receives a value as each Sync begins.
type gatedFile struct {
	data    []byte
	syncing chan struct{}
	release chan error
}

func (g *gatedFile) Map(off int64, n int) ([]byte, error) {
	if grow := int(off) + n - len(g.data); grow > 0 {
		g.data = append(g.data, make([]byte, grow)...)
	}
	return g.data[off : off+int64(n) : off+int64(n)], nil
}

func (g *gatedFile) Sync(int64) error {
	g.syncing <- struct{}{}
	return <-g.release
}

func (g *gatedFile) Close(int64) error { return nil }

// TestReadersWaitForTheWAL: a writer publishes a workspace or a version
// before its WAL record is synced. WorkspacesFor and ChangesSince, which
// serve getWorkspaces and getChangesSince, return only once the sync has
// covered what they saw, and with its error if it failed: a crash cannot
// take back what a reader was shown.
func TestReadersWaitForTheWAL(t *testing.T) {
	g := &gatedFile{data: []byte(walMagic), syncing: make(chan struct{}), release: make(chan error)}
	s := NewStore()
	s.wal = newWAL(g, int64(len(walMagic)), nil)

	// notBefore fails the test if got delivers before the sync is released,
	// then releases it with err.
	notBefore := func(what string, got <-chan error, err error) {
		t.Helper()
		select {
		case <-got:
			t.Fatalf("%s returned before the WAL sync covering it", what)
		case <-time.After(100 * time.Millisecond):
		}
		g.release <- err
	}

	created := make(chan error, 1)
	go func() { created <- s.CreateWorkspace(Workspace{ID: "ws", Owner: "alice"}) }()
	<-g.syncing
	listed := make(chan error, 1)
	var list []Workspace
	go func() {
		var err error
		list, err = s.WorkspacesFor("alice")
		listed <- err
	}()
	notBefore("WorkspacesFor", listed, nil)
	if err := <-created; err != nil {
		t.Fatal(err)
	}
	if err := <-listed; err != nil || len(list) != 1 {
		t.Fatalf("WorkspacesFor after the sync: %+v, %v", list, err)
	}

	committed := make(chan error, 2)
	commit := func(v uint64) {
		_, err := s.CommitVersion(ver("ws", "f", v, Modified))
		committed <- err
	}
	go commit(1)
	<-g.syncing
	read := make(chan error, 1)
	var ch Changes
	go func() {
		var err error
		ch, err = s.ChangesSince("ws", 0)
		read <- err
	}()
	notBefore("ChangesSince", read, nil)
	if err := <-committed; err != nil {
		t.Fatal(err)
	}
	if err := <-read; err != nil || ch.Version != 1 {
		t.Fatalf("ChangesSince after the sync: version %d, %v", ch.Version, err)
	}

	injected := errors.New("injected sync failure")
	go commit(2)
	<-g.syncing
	go func() {
		_, err := s.ChangesSince("ws", 1)
		read <- err
	}()
	notBefore("ChangesSince", read, injected)
	if err := <-committed; !errors.Is(err, injected) {
		t.Fatalf("commit over a failed sync: %v", err)
	}
	if err := <-read; !errors.Is(err, injected) {
		t.Fatalf("ChangesSince over a failed sync: %v, want its error", err)
	}
}

// TestAbandonedWALKeepsWaitedCommits: committers commit while the test
// copies the WAL file, as a kill -9 leaves it: the store is never closed.
// Records appended but not yet synced may be missing from the copy, but
// every commit acknowledged before the copy began is there after recovery,
// and the copy's bytes past its last record are zero, so replay ends there.
func TestAbandonedWALKeepsWaitedCommits(t *testing.T) {
	const committers, each = 4, 60
	dir := t.TempDir()
	s, err := Recover(filepath.Join(dir, "meta.wal"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s.Close() })
	newWS(t, s, "ws", "alice")
	var mu sync.Mutex
	acked := make([]uint64, committers) // the last version of item c acknowledged
	var wg sync.WaitGroup
	for c := 0; c < committers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for v := uint64(1); v <= each; v++ {
				if _, err := s.CommitVersion(ver("ws", fmt.Sprint("item", c), v, Modified)); err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				acked[c] = v
				mu.Unlock()
			}
		}(c)
	}
	defer wg.Wait() // before the cleanup closes the store under the committers
	var want []uint64
	for (want == nil || want[0] < each/2) && !t.Failed() {
		time.Sleep(time.Millisecond)
		mu.Lock()
		want = append(want[:0], acked...)
		mu.Unlock()
	}
	if t.Failed() {
		return
	}
	data, err := os.ReadFile(filepath.Join(dir, "meta.wal"))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "copy.wal")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	rec, err := Recover(path)
	if err != nil {
		t.Fatal(err)
	}
	for c, v := range want {
		cur, ok, err := rec.Current("ws", fmt.Sprint("item", c))
		if v > 0 && (err != nil || !ok || cur.Version < v) {
			t.Fatalf("item%d: v%d acknowledged before the copy, recovered %+v, %v, %v", c, v, cur, ok, err)
		}
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if end := info.Size(); end >= int64(len(data)) || !bytes.Equal(data[end:], make([]byte, int64(len(data))-end)) {
		t.Fatalf("copy of %d bytes recovers to %d: want a zero tail after the last record", len(data), end)
	}
}

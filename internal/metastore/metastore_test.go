package metastore

import (
	"errors"
	"fmt"
	"path/filepath"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"stacksync/internal/obs"
)

func newWS(t *testing.T, s *Store, id, owner string, members ...string) {
	t.Helper()
	if err := s.CreateWorkspace(Workspace{ID: id, Owner: owner, Members: members}); err != nil {
		t.Fatal(err)
	}
}

func ver(ws, item string, v uint64, status Status) ItemVersion {
	return ItemVersion{
		Workspace: ws,
		ItemID:    item,
		Path:      "/" + item,
		Version:   v,
		Status:    status,
		Size:      100,
		Chunks:    []string{"fp-" + item + fmt.Sprint(v)},
	}
}

// snap returns the workspace's current snapshot.
func snap(t *testing.T, s *Store, ws string) *snapshot {
	t.Helper()
	sn, err := s.snapshotOf(ws)
	if err != nil {
		t.Fatal(err)
	}
	return sn
}

// logged returns the versions of item in the workspace's change log, in
// commit order: every version it ever committed, since the test first
// checks that the log still reaches back to the workspace's creation.
func logged(t *testing.T, s *Store, ws, item string) []ItemVersion {
	t.Helper()
	sn := snap(t, s, ws)
	if sn.logStart != 0 {
		t.Fatalf("%s: change log starts after v%d, not at creation", ws, sn.logStart)
	}
	var out []ItemVersion
	for _, v := range sn.log {
		if v.ItemID == item {
			out = append(out, v)
		}
	}
	return out
}

func TestWorkspaceLifecycle(t *testing.T) {
	s := NewStore()
	defer s.Close()
	newWS(t, s, "ws1", "alice", "bob")
	if err := s.CreateWorkspace(Workspace{ID: "ws1", Owner: "x"}); !errors.Is(err, ErrWorkspaceExists) {
		t.Fatalf("duplicate workspace: %v", err)
	}
	if _, err := s.Workspace("ws1"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Workspace("nope"); !errors.Is(err, ErrNoWorkspace) {
		t.Fatalf("missing workspace: %v", err)
	}
}

func TestWorkspacesForOwnerAndMember(t *testing.T) {
	s := NewStore()
	defer s.Close()
	newWS(t, s, "wsA", "alice", "bob")
	newWS(t, s, "wsB", "bob")
	newWS(t, s, "wsC", "carol")

	if got, err := s.WorkspacesFor("alice"); err != nil || len(got) != 1 || got[0].ID != "wsA" {
		t.Fatalf("alice workspaces: %+v, %v", got, err)
	}
	got, err := s.WorkspacesFor("bob")
	if err != nil || len(got) != 2 || got[0].ID != "wsA" || got[1].ID != "wsB" {
		t.Fatalf("bob workspaces: %+v, %v", got, err)
	}
	if got, err := s.WorkspacesFor("nobody"); err != nil || len(got) != 0 {
		t.Fatalf("stranger workspaces: %+v, %v", got, err)
	}
}

func TestCommitNewObjectAndVersions(t *testing.T) {
	s := NewStore()
	defer s.Close()
	newWS(t, s, "ws", "alice")

	// New item must start at version 1.
	if _, err := s.CommitVersion(ver("ws", "f1", 2, Added)); !errors.Is(err, ErrVersionConflict) {
		t.Fatalf("v2 on unknown item: %v", err)
	}
	committed, err := s.CommitVersion(ver("ws", "f1", 1, Added))
	if err != nil {
		t.Fatal(err)
	}
	if committed.CommittedAt.IsZero() {
		t.Fatal("commit timestamp not set")
	}

	cur, ok, err := s.Current("ws", "f1")
	if err != nil || !ok || cur.Version != 1 {
		t.Fatalf("current = %+v, %v, %v", cur, ok, err)
	}
	if _, ok, _ := s.Current("ws", "ghost"); ok {
		t.Fatal("phantom item")
	}

	// Sequential versions commit; stale version conflicts and returns the
	// authoritative current version.
	if _, err := s.CommitVersion(ver("ws", "f1", 2, Modified)); err != nil {
		t.Fatal(err)
	}
	current, err := s.CommitVersion(ver("ws", "f1", 2, Modified))
	if !errors.Is(err, ErrVersionConflict) {
		t.Fatalf("stale commit: %v", err)
	}
	if current.Version != 2 {
		t.Fatalf("conflict should return current v2, got v%d", current.Version)
	}
	// Version skips conflict too.
	if _, err := s.CommitVersion(ver("ws", "f1", 9, Modified)); !errors.Is(err, ErrVersionConflict) {
		t.Fatalf("skipped version: %v", err)
	}
}

func TestFirstCommitterWinsUnderConcurrency(t *testing.T) {
	// Two devices race to commit version 2 of the same file; exactly one
	// must win — the serialization Algorithm 1 relies on.
	s := NewStore()
	defer s.Close()
	newWS(t, s, "ws", "alice")
	if _, err := s.CommitVersion(ver("ws", "f", 1, Added)); err != nil {
		t.Fatal(err)
	}
	const racers = 16
	var wg sync.WaitGroup
	wins := make(chan int, racers)
	for i := 0; i < racers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v := ver("ws", "f", 2, Modified)
			v.DeviceID = fmt.Sprintf("dev-%d", i)
			if _, err := s.CommitVersion(v); err == nil {
				wins <- i
			}
		}(i)
	}
	wg.Wait()
	close(wins)
	count := 0
	for range wins {
		count++
	}
	if count != 1 {
		t.Fatalf("winners = %d, want exactly 1", count)
	}
}

// TestStateAndChangeLog: State holds each live item's latest version, and
// the change log every acknowledged version in commit order.
func TestStateAndChangeLog(t *testing.T) {
	s := NewStore()
	defer s.Close()
	newWS(t, s, "ws", "alice")
	var acked []ItemVersion
	mustCommit := func(v ItemVersion) {
		t.Helper()
		c, err := s.CommitVersion(v)
		if err != nil {
			t.Fatal(err)
		}
		acked = append(acked, c)
	}
	mustCommit(ver("ws", "a", 1, Added))
	mustCommit(ver("ws", "a", 2, Modified))
	mustCommit(ver("ws", "b", 1, Added))
	mustCommit(ver("ws", "c", 1, Added))
	mustCommit(ver("ws", "c", 2, Deleted))

	if sn := snap(t, s, "ws"); sn.logStart != 0 || !reflect.DeepEqual(sn.log, acked) {
		t.Fatalf("change log from v%d: %+v, want %+v", sn.logStart, sn.log, acked)
	}

	// State excludes the deleted item and returns latest versions.
	state, err := s.State("ws")
	if err != nil {
		t.Fatal(err)
	}
	if len(state) != 2 {
		t.Fatalf("state has %d items, want 2: %+v", len(state), state)
	}
	if !reflect.DeepEqual(state, []ItemVersion{acked[1], acked[2]}) {
		t.Fatalf("state: %+v", state)
	}
}

func TestCommitBatchMixedOutcomes(t *testing.T) {
	s := NewStore()
	defer s.Close()
	newWS(t, s, "ws", "alice")
	if _, err := s.CommitVersion(ver("ws", "exists", 1, Added)); err != nil {
		t.Fatal(err)
	}
	results, err := s.CommitBatch([]ItemVersion{
		ver("ws", "new", 1, Added),       // commits
		ver("ws", "exists", 1, Modified), // conflicts (current is v1)
		ver("ws", "exists", 2, Modified), // commits on top
	})
	if err != nil {
		t.Fatal(err)
	}
	if !results[0].Committed || results[1].Committed || !results[2].Committed {
		t.Fatalf("batch outcomes: %+v", results)
	}
	if results[1].Version.Version != 1 {
		t.Fatalf("conflict carries current v%d, want 1", results[1].Version.Version)
	}
}

func TestStatusString(t *testing.T) {
	for s, want := range map[Status]string{Added: "ADD", Modified: "UPDATE", Deleted: "REMOVE", Status(0): "UNKNOWN"} {
		if got := s.String(); got != want {
			t.Fatalf("%d.String() = %q", s, got)
		}
	}
}

func TestCloseRejectsWrites(t *testing.T) {
	s := NewStore()
	newWS(t, s, "ws", "alice")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
	if _, err := s.CommitVersion(ver("ws", "f", 1, Added)); !errors.Is(err, ErrClosed) {
		t.Fatalf("commit after close: %v", err)
	}
	if err := s.CreateWorkspace(Workspace{ID: "x"}); !errors.Is(err, ErrClosed) {
		t.Fatalf("create after close: %v", err)
	}
}

func TestWALRecovery(t *testing.T) {
	path := filepath.Join(t.TempDir(), "meta.wal")
	fixed := time.Date(2014, 12, 8, 12, 0, 0, 0, time.UTC)
	s, err := Recover(path, WithNow(func() time.Time { return fixed }))
	if err != nil {
		t.Fatal(err)
	}
	newWS(t, s, "ws", "alice", "bob")
	if _, err := s.CommitVersion(ver("ws", "f", 1, Added)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.CommitVersion(ver("ws", "f", 2, Modified)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Recover(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	cur, ok, err := s2.Current("ws", "f")
	if err != nil || !ok || cur.Version != 2 {
		t.Fatalf("recovered current: %+v, %v, %v", cur, ok, err)
	}
	if !cur.CommittedAt.Equal(fixed) {
		t.Fatalf("recovery rewrote commit timestamp: %v", cur.CommittedAt)
	}
	ws, err := s2.WorkspacesFor("bob")
	if err != nil || len(ws) != 1 || ws[0].ID != "ws" {
		t.Fatalf("recovered workspaces: %+v, %v", ws, err)
	}
	// Recovered store must keep journalling.
	if _, err := s2.CommitVersion(ver("ws", "f", 3, Modified)); err != nil {
		t.Fatal(err)
	}
	_ = s2.Close()
	s3, err := Recover(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	cur, _, _ = s3.Current("ws", "f")
	if cur.Version != 3 {
		t.Fatalf("second-generation commit lost: v%d", cur.Version)
	}
}

// TestWALGroupCommitConcurrent: committers on several workspaces, two per
// workspace, commit through one WAL at once, by CommitVersion and by
// CommitBatch. Every commit returns only once durable, the flushes that
// carried the records are counted, and a recovery finds exactly what was
// acknowledged.
func TestWALGroupCommitConcurrent(t *testing.T) {
	const workspaces, perWS, each = 4, 2, 25
	path := filepath.Join(t.TempDir(), "meta.wal")
	fixed := WithNow(func() time.Time { return time.Unix(1700000000, 0).UTC() })
	reg := obs.NewRegistry()
	s, err := Recover(path, fixed, WithRegistry(reg))
	if err != nil {
		t.Fatal(err)
	}
	for w := 0; w < workspaces; w++ {
		newWS(t, s, fmt.Sprint("ws", w), "u")
	}
	acked := make([][]ItemVersion, workspaces*perWS)
	var wg sync.WaitGroup
	for c := range acked {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			ws, item := fmt.Sprint("ws", c%workspaces), fmt.Sprint("item", c)
			for v := uint64(1); v <= each; v++ {
				var err error
				var got ItemVersion
				if v%2 == 0 {
					got, err = s.CommitVersion(ver(ws, item, v, Modified))
				} else {
					var res []BatchResult
					if res, err = s.CommitBatch([]ItemVersion{ver(ws, item, v, Modified)}); err == nil {
						got = res[0].Version
					}
				}
				if err != nil {
					t.Errorf("%s/%s v%d: %v", ws, item, v, err)
					return
				}
				acked[c] = append(acked[c], got)
			}
		}(c)
	}
	wg.Wait()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	records := reg.CounterValue("metastore_wal_records_total")
	flushes := reg.CounterValue("metastore_wal_flushes_total")
	if want := uint64(workspaces + workspaces*perWS*each); records != want || flushes == 0 || flushes > records {
		t.Fatalf("%d records in %d flushes, want %d records", records, flushes, want)
	}
	rec, err := Recover(path, fixed)
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	for c, want := range acked {
		ws, item := fmt.Sprint("ws", c%workspaces), fmt.Sprint("item", c)
		if got := logged(t, rec, ws, item); len(want) != each || !reflect.DeepEqual(got, want) {
			t.Fatalf("%s/%s: recovered %+v, acknowledged %+v", ws, item, got, want)
		}
	}
}

// TestCreateLoggedBeforeFirstCommit: creators make workspaces while a
// committer per creator waits for each one to appear and commits to it at
// once. A workspace's record must reach the WAL before any commit to it,
// or replay meets the commit first, stops there and cuts every later
// record: after Close and Recover, every acknowledged create and commit is
// back.
func TestCreateLoggedBeforeFirstCommit(t *testing.T) {
	const creators, each = 4, 100
	path := filepath.Join(t.TempDir(), "meta.wal")
	s, err := Recover(path)
	if err != nil {
		t.Fatal(err)
	}
	id := func(c, i int) string { return fmt.Sprintf("ws-%d-%d", c, i) }
	var wg sync.WaitGroup
	for c := 0; c < creators; c++ {
		wg.Add(2)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if err := s.CreateWorkspace(Workspace{ID: id(c, i), Owner: "u"}); err != nil {
					t.Errorf("create %s: %v", id(c, i), err)
					return
				}
			}
		}(c)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				for {
					_, err := s.CommitVersion(ver(id(c, i), "f", 1, Added))
					if err == nil {
						break
					}
					if !errors.Is(err, ErrNoWorkspace) {
						t.Errorf("commit to %s: %v", id(c, i), err)
						return
					}
					runtime.Gosched()
				}
			}
		}(c)
	}
	wg.Wait()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if t.Failed() {
		return
	}
	rec, err := Recover(path)
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	for c := 0; c < creators; c++ {
		for i := 0; i < each; i++ {
			if cur, ok, err := rec.Current(id(c, i), "f"); err != nil || !ok || cur.Version != 1 {
				t.Fatalf("%s after recovery: v%d ok=%v err=%v", id(c, i), cur.Version, ok, err)
			}
		}
	}
}

// TestCloseWaitsOutWriters: Close lands while committers on several
// workspaces are mid-write. Each commit either fails with ErrClosed or is
// acknowledged, and every acknowledged commit is back after Recover.
func TestCloseWaitsOutWriters(t *testing.T) {
	const workspaces, perWS = 4, 2
	path := filepath.Join(t.TempDir(), "meta.wal")
	s, err := Recover(path)
	if err != nil {
		t.Fatal(err)
	}
	for w := 0; w < workspaces; w++ {
		newWS(t, s, fmt.Sprint("ws", w), "u")
	}
	acked := make([]uint64, workspaces*perWS)
	var wg sync.WaitGroup
	for c := range acked {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			ws, item := fmt.Sprint("ws", c%workspaces), fmt.Sprint("item", c)
			for v := uint64(1); ; v++ {
				if _, err := s.CommitVersion(ver(ws, item, v, Modified)); err != nil {
					if !errors.Is(err, ErrClosed) {
						t.Errorf("%s/%s v%d: %v", ws, item, v, err)
					}
					return
				}
				acked[c] = v
			}
		}(c)
	}
	for s.wal.end() < 4096 && !t.Failed() { // let the committers get going
		runtime.Gosched()
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	rec := recoverT(t, path)
	for c, v := range acked {
		ws, item := fmt.Sprint("ws", c%workspaces), fmt.Sprint("item", c)
		if cur, _, _ := rec.Current(ws, item); cur.Version < v {
			t.Errorf("%s/%s: v%d acknowledged, v%d recovered", ws, item, v, cur.Version)
		}
	}
}

// TestReplayedProposalAppendsNothing: a proposal that comes back after it
// committed (a client retransmit, an MQ redelivery) is re-acknowledged
// without a second WAL record or a second fsync'd record, both while it is
// the item's current version and after another device committed over it:
// the store finds the earlier version in its change log.
func TestReplayedProposalAppendsNothing(t *testing.T) {
	path := filepath.Join(t.TempDir(), "meta.wal")
	now := WithNow(func() time.Time { return time.Unix(1700000000, 0).UTC() })
	reg := obs.NewRegistry()
	s, err := Recover(path, now, WithRegistry(reg))
	if err != nil {
		t.Fatal(err)
	}
	newWS(t, s, "ws", "alice")
	v := ver("ws", "f", 1, Added)
	v.DeviceID = "d1"
	v1, err := s.CommitVersion(v)
	if err != nil {
		t.Fatal(err)
	}
	replay := func(what string) {
		t.Helper()
		end := s.wal.log.End()
		for i := 0; i < 4; i++ {
			res, err := s.CommitBatch([]ItemVersion{v})
			if err != nil || !res[0].Committed || !reflect.DeepEqual(res[0].Version, v1) {
				t.Fatalf("replay %d %s: %+v, %v", i, what, res, err)
			}
		}
		if got := s.wal.log.End(); got != end {
			t.Fatalf("replays %s grew the WAL from %d to %d B", what, end, got)
		}
	}
	replay("at the current version")
	w2 := ver("ws", "f", 2, Modified)
	w2.DeviceID = "d2"
	v2, err := s.CommitVersion(w2)
	if err != nil {
		t.Fatal(err)
	}
	replay("behind the current version")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if got := reg.CounterValue("metastore_wal_records_total"); got != 3 {
		t.Fatalf("%d WAL records, want 3 (the workspace, v1 and v2)", got)
	}
	// A log written while replays still appended holds such duplicates:
	// recovery reads past one.
	rec := recoverT(t, path, now)
	if got := logged(t, rec, "ws", "f"); !reflect.DeepEqual(got, []ItemVersion{v1, v2}) {
		t.Fatalf("recovered %+v", got)
	}
	if err := rec.wal.append(walVersion, &v1); err != nil {
		t.Fatal(err)
	}
	v3, err := rec.CommitVersion(ver("ws", "f", 3, Modified))
	if err != nil {
		t.Fatal(err)
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	if got := logged(t, recoverT(t, path, now), "ws", "f"); !reflect.DeepEqual(got, []ItemVersion{v1, v2, v3}) {
		t.Fatalf("recovered past a duplicate record: %+v", got)
	}
}

// TestCommitBatchRefusesMixedWorkspaces: a batch is one workspace's
// transaction, so one naming two is refused before anything commits.
func TestCommitBatchRefusesMixedWorkspaces(t *testing.T) {
	s := NewStore()
	defer s.Close()
	newWS(t, s, "a", "alice")
	newWS(t, s, "b", "alice")
	_, err := s.CommitBatch([]ItemVersion{ver("a", "f", 1, Added), ver("b", "f", 1, Added)})
	if !errors.Is(err, ErrMixedBatch) {
		t.Fatalf("mixed batch: %v", err)
	}
	for _, ws := range []string{"a", "b"} {
		if v, _ := s.CommitVersionOf(ws); v != 0 {
			t.Fatalf("refused batch committed to %s: version %d", ws, v)
		}
	}
}

func TestRecoverMissingWALStartsEmpty(t *testing.T) {
	s, err := Recover(filepath.Join(t.TempDir(), "never.wal"))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if got, err := s.WorkspacesFor("anyone"); err != nil || len(got) != 0 {
		t.Fatalf("fresh store has workspaces: %+v, %v", got, err)
	}
}

func TestCommitToUnknownWorkspaceFails(t *testing.T) {
	s := NewStore()
	defer s.Close()
	if _, err := s.CommitVersion(ver("ghost", "f", 1, Added)); !errors.Is(err, ErrNoWorkspace) {
		t.Fatalf("commit to missing workspace: %v", err)
	}
	if _, _, err := s.Current("ghost", "f"); !errors.Is(err, ErrNoWorkspace) {
		t.Fatalf("current in missing workspace: %v", err)
	}
	if _, err := s.State("ghost"); !errors.Is(err, ErrNoWorkspace) {
		t.Fatalf("state of missing workspace: %v", err)
	}
}

// heapAfterGC is the live heap once a collection has run.
func heapAfterGC() int64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return int64(m.HeapAlloc)
}

// TestHeapTracksLiveItemsNotVersions: the store holds each item's current
// version and a change log bounded by its retention, not every version ever
// committed. 10^5 versions of 100 items, committed in batches of 100 (about
// 19 MB when every version stayed), leave the heap under the bound, and so
// does the Recover that replays their WAL.
func TestHeapTracksLiveItemsNotVersions(t *testing.T) {
	const items, versions, bound = 100, 100_000, 6 << 20
	path := filepath.Join(t.TempDir(), "meta.wal")
	base := heapAfterGC()
	s, err := Recover(path)
	if err != nil {
		t.Fatal(err)
	}
	newWS(t, s, "ws", "u")
	batch := make([]ItemVersion, items)
	for n := uint64(1); n <= versions/items; n++ {
		for i := range batch {
			fp := fmt.Sprintf("%040x", n*items+uint64(i))
			batch[i] = ItemVersion{
				Workspace: "ws", ItemID: fmt.Sprintf("item-%03d", i), Path: fmt.Sprintf("/dir/file-%03d.txt", i),
				Version: n, Status: Modified, Size: 1024, Chunks: []string{fp}, Checksum: fp, DeviceID: "dev",
			}
		}
		if _, err := s.CommitBatch(batch); err != nil {
			t.Fatal(err)
		}
	}
	if grew := heapAfterGC() - base; grew > bound {
		t.Fatalf("heap grew %d B over %d versions of %d items, bound %d B", grew, versions, items, bound)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	base = heapAfterGC()
	rec := recoverT(t, path)
	if grew := heapAfterGC() - base; grew > bound {
		t.Fatalf("heap grew %d B replaying %d versions of %d items, bound %d B", grew, versions, items, bound)
	}
	if v, err := rec.CommitVersionOf("ws"); err != nil || v != versions {
		t.Fatalf("recovered version %d, %v", v, err)
	}
}

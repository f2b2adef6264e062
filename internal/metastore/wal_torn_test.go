package metastore

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"stacksync/internal/faults"
)

func commitN(t *testing.T, s *Store, ws string, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		_, err := s.CommitVersion(ItemVersion{
			Workspace: ws, ItemID: "item", Path: "f.txt",
			Version: uint64(i + 1), Status: Modified, Checksum: strings.Repeat("c", i+1),
		})
		if err != nil {
			t.Fatalf("commit v%d: %v", i+1, err)
		}
	}
}

// recoverT recovers the store at path and closes it when the test ends.
func recoverT(t *testing.T, path string, opts ...Option) *Store {
	t.Helper()
	s, err := Recover(path, opts...)
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	t.Cleanup(func() { _ = s.Close() })
	return s
}

func fileSize(t *testing.T, path string) int64 {
	t.Helper()
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return info.Size()
}

// TestRecoverTornTail cuts the WAL mid-way through its last record's
// payload and asserts recovery replays every complete transaction and drops
// only the torn tail.
func TestRecoverTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	s := recoverT(t, path)
	if err := s.CreateWorkspace(Workspace{ID: "ws", Owner: "u"}); err != nil {
		t.Fatal(err)
	}
	commitN(t, s, "ws", 4)
	before := s.wal.log.End() // v5's record starts here
	if _, err := s.CommitVersion(ItemVersion{
		Workspace: "ws", ItemID: "item", Path: "f.txt", Version: 5, Status: Modified, Checksum: "ccccc",
	}); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, before+(fileSize(t, path)-before)/2); err != nil {
		t.Fatal(err)
	}

	rec := recoverT(t, path)
	cur, ok, err := rec.Current("ws", "item")
	if err != nil || !ok {
		t.Fatalf("current after recovery: ok=%v err=%v", ok, err)
	}
	// Versions 1..4 were complete records; v5's record was torn.
	if cur.Version != 4 {
		t.Fatalf("recovered version = %d, want 4 (torn v5 dropped)", cur.Version)
	}

	// The torn tail must be gone from disk: appending and re-recovering must
	// not corrupt adjacent records.
	if _, err := rec.CommitVersion(ItemVersion{
		Workspace: "ws", ItemID: "item", Path: "f.txt", Version: 5, Status: Modified, Checksum: "new5",
	}); err != nil {
		t.Fatalf("commit after recovery: %v", err)
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	cur, ok, err = recoverT(t, path).Current("ws", "item")
	if err != nil || !ok || cur.Version != 5 || cur.Checksum != "new5" {
		t.Fatalf("after append+recover: %+v ok=%v err=%v", cur, ok, err)
	}
}

// TestRecoverNewlinelessCompleteTail: a last record missing only its final
// CRC byte is still torn — a record is committed when it is whole.
func TestRecoverNewlinelessCompleteTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	s := recoverT(t, path)
	if err := s.CreateWorkspace(Workspace{ID: "ws", Owner: "u"}); err != nil {
		t.Fatal(err)
	}
	commitN(t, s, "ws", 3)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, fileSize(t, path)-1); err != nil { // drop the last CRC byte only
		t.Fatal(err)
	}
	cur, ok, _ := recoverT(t, path).Current("ws", "item")
	if !ok || cur.Version != 2 {
		t.Fatalf("recovered version = %d (ok=%v), want 2", cur.Version, ok)
	}
}

// TestRecoverStopsAtDamagedRecord flips, one at a time, each byte of the
// third of five committed versions' record. Whatever the byte, recovery
// must keep v1 and v2 as they were committed and end the replay at v3: a
// damaged record is never replayed as data, and nothing after it is.
func TestRecoverStopsAtDamagedRecord(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "wal.log")
	now := WithNow(func() time.Time { return time.Unix(1700000000, 0).UTC() })
	s := recoverT(t, path, now)
	if err := s.CreateWorkspace(Workspace{ID: "ws", Owner: "u"}); err != nil {
		t.Fatal(err)
	}
	var committed []ItemVersion
	var ends []int64 // where the log ends after each commit
	for v := uint64(1); v <= 5; v++ {
		c, err := s.CommitVersion(ItemVersion{
			Workspace: "ws", ItemID: "item", Path: "f.txt", Version: v, Status: Modified,
			Size: 1000 * int64(v), Checksum: strings.Repeat("ab", int(v)),
		})
		if err != nil {
			t.Fatal(err)
		}
		committed = append(committed, c)
		ends = append(ends, s.wal.log.End())
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := ends[1]; i < ends[2]; i++ {
		damaged := bytes.Clone(data)
		damaged[i] ^= 0x01
		p := filepath.Join(dir, fmt.Sprintf("damaged-%d.wal", i))
		if err := os.WriteFile(p, damaged, 0o644); err != nil {
			t.Fatal(err)
		}
		got := logged(t, recoverT(t, p, now), "ws", "item")
		if !reflect.DeepEqual(got, committed[:2]) {
			t.Fatalf("byte %d of v3's record flipped: recovered %+v, want v1 and v2 as committed %+v", i-ends[1], got, committed[:2])
		}
	}
}

// TestWALRefusesJSONLines: a metadata.wal of the JSON-lines format earlier
// versions wrote fails Recover with an error that names the format, and is
// left as it was.
func TestWALRefusesJSONLines(t *testing.T) {
	path := filepath.Join(t.TempDir(), "metadata.wal")
	old := `{"op":"workspace","workspace":{"id":"ws","owner":"u"}}` + "\n"
	if err := os.WriteFile(path, []byte(old), 0o644); err != nil {
		t.Fatal(err)
	}
	if s, err := Recover(path); err == nil {
		_ = s.Close()
		t.Fatal("JSON-lines WAL replayed")
	} else if !strings.Contains(err.Error(), "JSON-lines") {
		t.Fatalf("refusal %q does not name the format", err)
	}
	if data, _ := os.ReadFile(path); string(data) != old {
		t.Fatal("refused WAL was modified")
	}
}

// TestInjectedTornWrite drives the tear through the fault plan: the store is
// configured with a TornP=1 site, the first commit tears its WAL record, and
// recovery drops exactly that record.
func TestInjectedTornWrite(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	plan := faults.NewPlan(faults.Config{Seed: 1, Sites: map[string]faults.SiteConfig{
		"meta": {TornP: 1},
	}})
	s := recoverT(t, path, WithFaults(plan, "meta"))
	if err := s.CreateWorkspace(Workspace{ID: "ws", Owner: "u"}); err != nil {
		t.Fatal(err)
	}
	_, err := s.CommitVersion(ItemVersion{
		Workspace: "ws", ItemID: "item", Path: "f.txt", Version: 1, Status: Added, Checksum: "c",
	})
	if !errors.Is(err, ErrTornWrite) {
		t.Fatalf("commit error = %v, want ErrTornWrite", err)
	}
	_ = s.Close()

	rec := recoverT(t, path)
	if _, ok, _ := rec.Current("ws", "item"); ok {
		t.Fatalf("torn commit survived recovery")
	}
	if _, err := rec.Workspace("ws"); err != nil {
		t.Fatalf("workspace record lost: %v", err)
	}
}

// TestCommitAbortInjection asserts ErrTxAborted rolls back cleanly and a
// retry of the same proposal succeeds.
func TestCommitAbortInjection(t *testing.T) {
	plan := faults.NewPlan(faults.Config{Seed: 2, Sites: map[string]faults.SiteConfig{
		"meta": {AbortP: 0.5},
	}})
	s := NewStore(WithFaults(plan, "meta"))
	if err := s.CreateWorkspace(Workspace{ID: "ws", Owner: "u"}); err != nil {
		t.Fatal(err)
	}
	aborts, commits := 0, 0
	for i := 0; i < 50; i++ {
		v := ItemVersion{
			Workspace: "ws", ItemID: "item", Path: "f.txt",
			Version: uint64(commits + 1), Status: Modified, Checksum: "c",
		}
		for {
			_, err := s.CommitBatch([]ItemVersion{v})
			if errors.Is(err, ErrTxAborted) {
				aborts++
				continue // transient: retry verbatim
			}
			if err != nil {
				t.Fatalf("commit: %v", err)
			}
			commits++
			break
		}
	}
	if commits != 50 {
		t.Fatalf("commits = %d, want 50", commits)
	}
	if aborts == 0 {
		t.Fatalf("no aborts injected at AbortP=0.5")
	}
	cur, ok, _ := s.Current("ws", "item")
	if !ok || cur.Version != 50 {
		t.Fatalf("final version = %d (ok=%v), want 50", cur.Version, ok)
	}
}

// TestCommitReplayIsIdempotent: re-submitting an already-committed proposal
// (MQ redelivery, proxy retry) re-acknowledges instead of conflicting, while
// the change log still holds it; from before the log's window it gets a
// conflict that carries the current version.
func TestCommitReplayIsIdempotent(t *testing.T) {
	s := NewStore(WithLogRetention(4))
	if err := s.CreateWorkspace(Workspace{ID: "ws", Owner: "u"}); err != nil {
		t.Fatal(err)
	}
	v := ItemVersion{Workspace: "ws", ItemID: "i", Path: "f", Version: 1, Status: Added, Checksum: "x", DeviceID: "d1"}
	if _, err := s.CommitVersion(v); err != nil {
		t.Fatal(err)
	}
	res, err := s.CommitBatch([]ItemVersion{v})
	if err != nil {
		t.Fatal(err)
	}
	if !res[0].Committed {
		t.Fatalf("replayed proposal not re-acknowledged: %+v", res[0])
	}
	// A genuinely different proposal at the same version still conflicts.
	other := v
	other.DeviceID = "d2"
	other.Checksum = "y"
	res, err = s.CommitBatch([]ItemVersion{other})
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Committed {
		t.Fatalf("conflicting proposal wrongly committed")
	}
	// Five more versions from d2 push v1 out of the log's window.
	for n := uint64(2); n <= 6; n++ {
		next := other
		next.Version, next.Status = n, Modified
		if _, err := s.CommitVersion(next); err != nil {
			t.Fatal(err)
		}
	}
	if start := snap(t, s, "ws").logStart; start < 1 {
		t.Fatalf("log still starts at v%d: v1 is in the window", start)
	}
	res, err = s.CommitBatch([]ItemVersion{v})
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Committed || res[0].Version.Version != 6 || res[0].Version.DeviceID != "d2" {
		t.Fatalf("replay from before the window: %+v, want a conflict carrying v6", res[0])
	}
}

// TestRecoverTornBatchMatrix parametrizes the crash point over group-commit
// batch boundaries: the torn record can be a lone append (mid-record), sit
// inside a multi-record batch, or land exactly on the boundary between two
// batches. In every case the recovered store must match a reference model
// built from only the records that became durable before the crash.
func TestRecoverTornBatchMatrix(t *testing.T) {
	fixed := time.Unix(1700000000, 0).UTC()
	now := func() time.Time { return fixed }
	mk := func(v uint64) ItemVersion {
		status := Modified
		if v == 1 {
			status = Added
		}
		return ItemVersion{
			Workspace: "ws", ItemID: "f", Path: "/f", Version: v,
			Status: status, Checksum: strings.Repeat("c", int(v)),
		}
	}
	cases := []struct {
		name    string
		run     func(t *testing.T, s *Store, w *WAL)
		survive uint64 // highest version durable after the crash
	}{
		{
			// Crash during a lone single-record append.
			name: "mid-record",
			run: func(t *testing.T, s *Store, w *WAL) {
				for v := uint64(1); v <= 2; v++ {
					if _, err := s.CommitVersion(mk(v)); err != nil {
						t.Fatalf("commit v%d: %v", v, err)
					}
				}
				w.TearNext()
				if _, err := s.CommitVersion(mk(3)); !errors.Is(err, ErrTornWrite) {
					t.Fatalf("torn commit error = %v, want ErrTornWrite", err)
				}
			},
			survive: 2,
		},
		{
			// Crash inside a batch: CommitBatch groups v2..v4 into one
			// group-commit flush and the tear lands on the middle record, so
			// v2 is durable and v3, v4 are lost.
			name: "inside-batch",
			run: func(t *testing.T, s *Store, w *WAL) {
				if _, err := s.CommitVersion(mk(1)); err != nil {
					t.Fatal(err)
				}
				w.TearAfter(1)
				if _, err := s.CommitBatch([]ItemVersion{mk(2), mk(3), mk(4)}); !errors.Is(err, ErrTornWrite) {
					t.Fatalf("torn batch error = %v, want ErrTornWrite", err)
				}
			},
			survive: 2,
		},
		{
			// Crash between batches: batch A lands completely, the very first
			// record of batch B tears, so A survives and B vanishes whole.
			name: "between-batches",
			run: func(t *testing.T, s *Store, w *WAL) {
				if _, err := s.CommitBatch([]ItemVersion{mk(1), mk(2)}); err != nil {
					t.Fatal(err)
				}
				w.TearAfter(0)
				if _, err := s.CommitBatch([]ItemVersion{mk(3), mk(4)}); !errors.Is(err, ErrTornWrite) {
					t.Fatalf("torn batch error = %v, want ErrTornWrite", err)
				}
			},
			survive: 2,
		},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "wal.log")
			s := recoverT(t, path, WithNow(now))
			if err := s.CreateWorkspace(Workspace{ID: "ws", Owner: "u"}); err != nil {
				t.Fatal(err)
			}
			tc.run(t, s, s.wal)
			_ = s.Close()

			rec, err := Recover(path, WithNow(now))
			if err != nil {
				t.Fatalf("recover: %v", err)
			}
			defer rec.Close()

			// Reference model: replay only the durable prefix on a fresh
			// in-memory store with the same clock.
			ref := NewStore(WithNow(now))
			if err := ref.CreateWorkspace(Workspace{ID: "ws", Owner: "u"}); err != nil {
				t.Fatal(err)
			}
			for v := uint64(1); v <= tc.survive; v++ {
				if _, err := ref.CommitVersion(mk(v)); err != nil {
					t.Fatal(err)
				}
			}
			gotState, err := rec.State("ws")
			if err != nil {
				t.Fatal(err)
			}
			wantState, err := ref.State("ws")
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(gotState, wantState) {
				t.Fatalf("recovered state diverges from reference model\n got:  %+v\n want: %+v", gotState, wantState)
			}
			// WAL replay must rebuild an identical MVCC snapshot, not just
			// identical query answers: the workspace version and a change log
			// reaching back to creation (compaction state is volatile, so the
			// watermark resets to 0 on recovery) that holds exactly the
			// durable commits, then the same ChangesSince replies at every
			// cursor.
			var durable []ItemVersion
			for v := uint64(1); v <= tc.survive; v++ {
				d := mk(v)
				d.CommittedAt = fixed
				durable = append(durable, d)
			}
			if got := logged(t, rec, "ws", "f"); !reflect.DeepEqual(got, durable) {
				t.Fatalf("recovered change log diverges from the durable commits\n got:  %+v\n want: %+v", got, durable)
			}
			if gotV := snap(t, rec, "ws").version; gotV != tc.survive {
				t.Fatalf("recovered workspace version %d, want %d", gotV, tc.survive)
			}
			for since := uint64(0); since <= tc.survive+1; since++ {
				gotCh, gErr := rec.ChangesSince("ws", since)
				wantCh, wErr := ref.ChangesSince("ws", since)
				if (gErr == nil) != (wErr == nil) || !reflect.DeepEqual(gotCh, wantCh) {
					t.Fatalf("ChangesSince(%d) diverges after recovery\n got:  %+v (%v)\n want: %+v (%v)",
						since, gotCh, gErr, wantCh, wErr)
				}
			}

			// The truncated log must stay appendable and re-recoverable.
			if _, err := rec.CommitVersion(mk(tc.survive + 1)); err != nil {
				t.Fatalf("commit after recovery: %v", err)
			}
			if err := rec.Close(); err != nil {
				t.Fatal(err)
			}
			rec2, err := Recover(path, WithNow(now))
			if err != nil {
				t.Fatalf("second recovery: %v", err)
			}
			defer rec2.Close()
			cur, ok, _ := rec2.Current("ws", "f")
			if !ok || cur.Version != tc.survive+1 {
				t.Fatalf("after append+recover: v%d ok=%v, want v%d", cur.Version, ok, tc.survive+1)
			}
		})
	}
}

// TestCurrentNotBlockedByInjectedSlowCommit is the regression test for the
// injectTx bug: fault-injection sleeps used to run under the store's write
// lock, so one artificially slow commit stalled every reader. Delays now
// fire before lock acquisition — a reader on another workspace (and even on
// the same one) answers immediately while the slow commit sleeps.
func TestCurrentNotBlockedByInjectedSlowCommit(t *testing.T) {
	cfg := func(seed int64) faults.Config {
		return faults.Config{Seed: seed, Sites: map[string]faults.SiteConfig{
			"meta": {DelayP: 1, MaxDelay: time.Second},
		}}
	}
	// Decide is deterministic per (seed, site, key); probe for a seed whose
	// first commit (Keyer key "0") draws a comfortably long delay.
	var seed int64
	var delay time.Duration
	for s := int64(1); s <= 1000; s++ {
		d := faults.NewPlan(cfg(s)).Decide("meta", "0")
		if d.Kind == faults.Delay && d.Delay >= 500*time.Millisecond {
			seed, delay = s, d.Delay
			break
		}
	}
	if seed == 0 {
		t.Fatal("no seed with a long first-commit delay in 1..1000")
	}

	s := NewStore(WithFaults(faults.NewPlan(cfg(seed)), "meta"))
	for _, ws := range []string{"ws-slow", "ws-other"} {
		if err := s.CreateWorkspace(Workspace{ID: ws, Owner: "u"}); err != nil {
			t.Fatal(err)
		}
	}

	// The first write op draws key "0" and sleeps for `delay` before taking
	// its workspace's lock.
	start := time.Now()
	done := make(chan error, 1)
	go func() {
		_, err := s.CommitVersion(ItemVersion{
			Workspace: "ws-slow", ItemID: "f", Path: "/f", Version: 1, Status: Added,
		})
		done <- err
	}()
	time.Sleep(50 * time.Millisecond) // let the committer enter its injected sleep

	readStart := time.Now()
	if _, _, err := s.Current("ws-other", "x"); err != nil {
		t.Fatalf("current on other workspace: %v", err)
	}
	if _, _, err := s.Current("ws-slow", "f"); err != nil {
		t.Fatalf("current on slow workspace: %v", err)
	}
	if _, err := s.State("ws-other"); err != nil {
		t.Fatal(err)
	}
	readElapsed := time.Since(readStart)
	if readElapsed > delay/2 {
		t.Fatalf("reads took %v while a %v injected commit delay was in flight — readers are blocked by the sleeping committer", readElapsed, delay)
	}

	if err := <-done; err != nil {
		t.Fatalf("slow commit: %v", err)
	}
	if total := time.Since(start); total < delay {
		t.Fatalf("commit finished in %v, before its %v injected delay — fault did not fire", total, delay)
	}
}

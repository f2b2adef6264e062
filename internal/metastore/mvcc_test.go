package metastore

import (
	"errors"
	"fmt"
	"testing"

	"stacksync/internal/obs"
)

// commitSeq commits n sequential versions of distinct items and returns the
// store, ready at workspace version n.
func commitSeq(t *testing.T, s *Store, ws string, n int) {
	t.Helper()
	for i := 1; i <= n; i++ {
		if _, err := s.CommitVersion(ItemVersion{
			Workspace: ws, ItemID: fmt.Sprintf("it-%d", i), Path: fmt.Sprintf("/it-%d", i),
			Version: 1, Status: Added, Checksum: fmt.Sprintf("c%d", i),
		}); err != nil {
			t.Fatal(err)
		}
	}
}

func TestChangesSinceSemantics(t *testing.T) {
	s := NewStore()
	if err := s.CreateWorkspace(Workspace{ID: "ws", Owner: "u"}); err != nil {
		t.Fatal(err)
	}

	// Empty workspace, cold cursor: a Full reply with nothing in it.
	ch, err := s.ChangesSince("ws", 0)
	if err != nil || !ch.Full || ch.Version != 0 || len(ch.Items) != 0 {
		t.Fatalf("empty cold reply: %+v err=%v", ch, err)
	}

	commitSeq(t, s, "ws", 5)

	// Cold cursor: full live state at the head version.
	ch, err = s.ChangesSince("ws", 0)
	if err != nil || !ch.Full || ch.Version != 5 || len(ch.Items) != 5 {
		t.Fatalf("cold reply: %+v err=%v", ch, err)
	}

	// Warm cursor: exactly the log tail, in commit order.
	ch, err = s.ChangesSince("ws", 3)
	if err != nil || ch.Full || ch.Version != 5 || len(ch.Items) != 2 {
		t.Fatalf("warm reply: %+v err=%v", ch, err)
	}
	if ch.Items[0].ItemID != "it-4" || ch.Items[1].ItemID != "it-5" {
		t.Fatalf("tail order: %+v", ch.Items)
	}

	// Caught up: empty, not Full.
	ch, err = s.ChangesSince("ws", 5)
	if err != nil || ch.Full || len(ch.Items) != 0 || ch.Version != 5 {
		t.Fatalf("caught-up reply: %+v err=%v", ch, err)
	}

	// A cursor from the future (failover to a staler replica) degrades to a
	// Full reply instead of fabricating a tail.
	ch, err = s.ChangesSince("ws", 9)
	if err != nil || !ch.Full || ch.Version != 5 || len(ch.Items) != 5 {
		t.Fatalf("future-cursor reply: %+v err=%v", ch, err)
	}

	// Unknown workspace.
	if _, err := s.ChangesSince("ghost", 0); !errors.Is(err, ErrNoWorkspace) {
		t.Fatalf("ghost workspace: %v", err)
	}
}

func TestChangesSinceTailIsACopy(t *testing.T) {
	s := NewStore()
	if err := s.CreateWorkspace(Workspace{ID: "ws", Owner: "u"}); err != nil {
		t.Fatal(err)
	}
	commitSeq(t, s, "ws", 3)
	ch, err := s.ChangesSince("ws", 1)
	if err != nil || len(ch.Items) != 2 {
		t.Fatalf("tail: %+v err=%v", ch, err)
	}
	// Mutating the reply must not reach the store's log.
	ch.Items[0].Checksum = "tampered"
	again, err := s.ChangesSince("ws", 1)
	if err != nil || again.Items[0].Checksum == "tampered" {
		t.Fatalf("reply aliases the internal log: %+v err=%v", again, err)
	}
}

func TestCompactionFallbackToFullState(t *testing.T) {
	s := NewStore()
	if err := s.CreateWorkspace(Workspace{ID: "ws", Owner: "u"}); err != nil {
		t.Fatal(err)
	}
	commitSeq(t, s, "ws", 6)

	// Force-compact down to the last 2 entries: watermark moves to 4.
	wm, err := s.CompactLog("ws", 2)
	if err != nil || wm != 4 {
		t.Fatalf("compact: wm=%d err=%v", wm, err)
	}
	if got := snap(t, s, "ws").logStart; got != 4 {
		t.Fatalf("watermark: %d", got)
	}

	// Cursors at/above the watermark still get tails.
	ch, err := s.ChangesSince("ws", 4)
	if err != nil || ch.Full || len(ch.Items) != 2 {
		t.Fatalf("at-watermark reply: %+v err=%v", ch, err)
	}
	// A cursor below it has been compacted away: full state, flagged.
	ch, err = s.ChangesSince("ws", 3)
	if err != nil || !ch.Full || ch.Version != 6 || len(ch.Items) != 6 {
		t.Fatalf("below-watermark reply: %+v err=%v", ch, err)
	}
	// Idempotent: compacting an already-short log moves nothing.
	wm2, err := s.CompactLog("ws", 2)
	if err != nil || wm2 != 4 {
		t.Fatalf("re-compact: wm=%d err=%v", wm2, err)
	}
}

func TestAutomaticRetentionCompaction(t *testing.T) {
	reg := obs.NewRegistry()
	s := NewStore(WithLogRetention(8), WithRegistry(reg))
	if err := s.CreateWorkspace(Workspace{ID: "ws", Owner: "u"}); err != nil {
		t.Fatal(err)
	}
	commitSeq(t, s, "ws", 20)
	wm := snap(t, s, "ws").logStart
	if wm == 0 {
		t.Fatal("retention never advanced the watermark")
	}
	if reg.CounterValue("metastore_log_compactions_total") == 0 {
		t.Fatal("no compaction recorded")
	}
	// The surviving tail still serves incremental reads.
	ch, err := s.ChangesSince("ws", wm)
	if err != nil || ch.Full || uint64(len(ch.Items)) != 20-wm {
		t.Fatalf("post-compaction tail: %+v err=%v", ch, err)
	}
	// State is unaffected by log trimming.
	state, err := s.State("ws")
	if err != nil || len(state) != 20 {
		t.Fatalf("state after compaction: %d items err=%v", len(state), err)
	}
}

func TestSnapshotReadMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	s := NewStore(WithRegistry(reg))
	if err := s.CreateWorkspace(Workspace{ID: "ws", Owner: "u"}); err != nil {
		t.Fatal(err)
	}
	commitSeq(t, s, "ws", 4)
	if _, err := s.ChangesSince("ws", 2); err != nil { // tail
		t.Fatal(err)
	}
	if _, err := s.ChangesSince("ws", 0); err != nil { // full
		t.Fatal(err)
	}
	if _, err := s.ChangesSince("ws", 4); err != nil { // empty
		t.Fatal(err)
	}
	if _, err := s.CompactLog("ws", 1); err != nil {
		t.Fatal(err)
	}
	if _, err := s.ChangesSince("ws", 2); err != nil { // fallback (+full)
		t.Fatal(err)
	}
	checks := []struct {
		labels []string
		want   uint64
	}{
		{[]string{"result", "tail"}, 1},
		{[]string{"result", "full"}, 2},
		{[]string{"result", "empty"}, 1},
	}
	for _, c := range checks {
		if got := reg.CounterValue("metastore_changes_since_total", c.labels...); got != c.want {
			t.Errorf("changes_since_total%v = %d, want %d", c.labels, got, c.want)
		}
	}
	if got := reg.CounterValue("metastore_changes_compaction_fallback_total"); got != 1 {
		t.Errorf("fallback counter = %d, want 1", got)
	}
	if got := reg.CounterValue("metastore_snapshot_installs_total"); got != 4 {
		t.Errorf("snapshot installs = %d, want 4", got)
	}
	if got := reg.CounterValue("metastore_log_compactions_total"); got != 1 {
		t.Errorf("compactions = %d, want 1", got)
	}
	if got := reg.CounterValue("metastore_log_compacted_entries_total"); got != 3 {
		t.Errorf("compacted entries = %d, want 3", got)
	}
	if v, ok := reg.GaugeValue("metastore_log_entries"); !ok || v != 1 {
		t.Errorf("log entries gauge = %v ok=%v, want 1", v, ok)
	}
	if _, ok := reg.GaugeValue("metastore_snapshot_age_seconds"); !ok {
		t.Error("snapshot age gauge missing")
	}
}

func TestCommitVersionOf(t *testing.T) {
	s := NewStore()
	if err := s.CreateWorkspace(Workspace{ID: "ws", Owner: "u"}); err != nil {
		t.Fatal(err)
	}
	if v, err := s.CommitVersionOf("ws"); err != nil || v != 0 {
		t.Fatalf("fresh version: %d err=%v", v, err)
	}
	commitSeq(t, s, "ws", 3)
	if v, err := s.CommitVersionOf("ws"); err != nil || v != 3 {
		t.Fatalf("version: %d err=%v", v, err)
	}
	if _, err := s.CommitVersionOf("ghost"); !errors.Is(err, ErrNoWorkspace) {
		t.Fatalf("ghost CommitVersionOf: %v", err)
	}
}

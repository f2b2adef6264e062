package client

import (
	"bytes"
	"context"
	"testing"
	"time"

	"stacksync/internal/core"
	"stacksync/internal/metastore"
)

// TestConflictCopyFromKeyOnlyEcho drives the losing side of a conflict from
// a notification whose Proposed echoes only the proposal's key, as the
// SyncService sends it: the path, status and content of the losing proposal
// must come from the device's own stash, never from the echo.
func TestConflictCopyFromKeyOnlyEcho(t *testing.T) {
	r := newRig(t)
	a := r.newDevice("alice", "dev-a")
	if err := a.PutFile("docs/plan.txt", []byte("base")); err != nil {
		t.Fatal(err)
	}
	if err := a.WaitForVersion("docs/plan.txt", 1, syncWait); err != nil {
		t.Fatal(err)
	}
	base, ok, err := r.meta.Current("ws", ItemID("ws", "docs/plan.txt"))
	if err != nil || !ok {
		t.Fatalf("current: ok=%v err=%v", ok, err)
	}
	// Another device won version 2 (same content, so adopting it needs no
	// chunk download).
	winner := base
	winner.Version, winner.Status, winner.DeviceID = 2, metastore.Modified, "dev-b"
	if _, err := r.meta.CommitVersion(winner); err != nil {
		t.Fatal(err)
	}
	// lostTo is the notification of proposal losing to winner, echoing
	// only the proposal's key.
	lostTo := func(proposal metastore.ItemVersion) core.CommitNotification {
		return core.CommitNotification{Workspace: "ws", DeviceID: "dev-a", Results: []core.CommitResult{{
			Item:     winner,
			Proposed: metastore.ItemVersion{ItemID: proposal.ItemID, Version: proposal.Version},
		}}}
	}
	resolve := func(n core.CommitNotification) []Event {
		t.Helper()
		drainEvents(a)
		if err := a.handleNotification(context.Background(), n); err != nil {
			t.Fatal(err)
		}
		var evs []Event
		for {
			select {
			case e := <-a.Events():
				evs = append(evs, e)
			default:
				return evs
			}
		}
	}
	copyPath := ConflictCopyPath("docs/plan.txt", "dev-a")

	t.Run("losing edit keeps a copy at the stashed path", func(t *testing.T) {
		edit := base
		edit.Version, edit.Status, edit.DeviceID = 2, metastore.Modified, "dev-a"
		a.stashProposed(edit, []byte("from A"))
		evs := resolve(lostTo(edit))
		if len(evs) == 0 || evs[len(evs)-1].Type != ConflictResolved || evs[len(evs)-1].Path != copyPath {
			t.Fatalf("events = %+v, want ConflictResolved at %q", evs, copyPath)
		}
		if err := a.WaitForVersion(copyPath, 1, syncWait); err != nil {
			t.Fatal(err)
		}
		if got, _ := a.FileContent(copyPath); !bytes.Equal(got, []byte("from A")) {
			t.Fatalf("conflict copy content = %q", got)
		}
		if v, _ := a.Version("docs/plan.txt"); v != 2 {
			t.Fatalf("original path at v%d, want the winner's v2", v)
		}
	})

	t.Run("losing delete makes no copy", func(t *testing.T) {
		tomb := base
		tomb.Version, tomb.Status, tomb.DeviceID, tomb.Chunks = 3, metastore.Deleted, "dev-a", nil
		a.stashProposed(tomb, nil)
		evs := resolve(lostTo(tomb))
		for _, e := range evs {
			if e.Type == ConflictResolved {
				t.Fatalf("losing delete produced a conflict copy: %+v", e)
			}
		}
		if a.ProposalPending("docs/plan.txt") {
			t.Fatal("resolved tombstone still pending")
		}
	})

	t.Run("restarted device without a stash makes no copy", func(t *testing.T) {
		ghost := base
		ghost.Version = 7
		evs := resolve(lostTo(ghost)) // nothing stashed: the device restarted
		for _, e := range evs {
			if e.Type == ConflictResolved {
				t.Fatalf("unknown proposal produced a conflict copy: %+v", e)
			}
		}
	})
}

// TestOwnCommitWithoutEcho feeds the originator a committed result whose
// Proposed is zero, as the SyncService sends it: the pending proposal must
// be found by the committed Item's key, so it is no longer pending and is
// never retransmitted.
func TestOwnCommitWithoutEcho(t *testing.T) {
	r := newRig(t)
	const every = 50 * time.Millisecond
	a := r.newDevice("alice", "dev-a", func(cfg *Config) { cfg.RetransmitEvery = every })
	if err := a.PutFile("docs/plan.txt", []byte("base")); err != nil {
		t.Fatal(err)
	}
	if err := a.WaitForVersion("docs/plan.txt", 1, syncWait); err != nil {
		t.Fatal(err)
	}
	base, ok, err := r.meta.Current("ws", ItemID("ws", "docs/plan.txt"))
	if err != nil || !ok {
		t.Fatalf("current: ok=%v err=%v", ok, err)
	}
	// A v2 proposal this device stashed but that no service has seen: only a
	// retransmission would bring it to the metadata store.
	edit := base
	edit.Version, edit.Status, edit.DeviceID = 2, metastore.Modified, "dev-a"
	a.stashProposed(edit, []byte("edited"))
	n := core.CommitNotification{Workspace: "ws", DeviceID: "dev-a",
		Results: []core.CommitResult{{Committed: true, Item: edit}}}
	if err := a.handleNotification(context.Background(), n); err != nil {
		t.Fatal(err)
	}
	if a.ProposalPending("docs/plan.txt") {
		t.Fatal("committed proposal still pending")
	}
	if got, _ := a.FileContent("docs/plan.txt"); !bytes.Equal(got, []byte("edited")) {
		t.Fatalf("content = %q, want the stashed proposal's", got)
	}
	time.Sleep(4 * every)
	if cur, _, _ := r.meta.Current("ws", edit.ItemID); cur.Version != 1 {
		t.Fatalf("metastore at v%d: the committed proposal was retransmitted", cur.Version)
	}
}

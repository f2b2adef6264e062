package metastore

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"stacksync/internal/reclog"
)

// walRecord frames one record as the WAL writes it.
func walRecord(f *testing.F, op byte, v any) []byte {
	p, err := appendRecord(nil, op, v)
	if err != nil {
		f.Fatal(err)
	}
	return reclog.Frame(nil, p)
}

// walFile is the WAL's magic followed by parts.
func walFile(f *testing.F, parts ...[]byte) []byte {
	return bytes.Join(append([][]byte{[]byte(walMagic)}, parts...), nil)
}

// FuzzWALReplay throws arbitrary bytes at WAL recovery. Recovery may reject
// the log with an error, but it must never panic — and when it accepts, the
// recovered store must be fully usable: new commits append cleanly and a
// second recovery of the repaired log succeeds.
func FuzzWALReplay(f *testing.F) {
	ws := walFile(f, walRecord(f, walWorkspace, &Workspace{ID: "ws", Owner: "u"}))
	version := walRecord(f, walVersion, &ItemVersion{Workspace: "ws", ItemID: "i", Path: "/i", Version: 1, Status: Added})
	f.Add(ws)
	f.Add(append(bytes.Clone(ws), version...))
	f.Add(walFile(f, walRecord(f, walVersion, &ItemVersion{Workspace: "ghost", ItemID: "i", Version: 1, Status: Added})))
	f.Add(ws[:len(ws)-5]) // torn tail
	f.Add([]byte(walMagic))
	f.Add(walFile(f, reclog.Frame(nil, []byte{9, 1, 2}), []byte("not a record at all")))
	f.Add(append(bytes.Clone(ws), make([]byte, 4096)...)) // a zero tail, as the writer preallocates
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "wal.log")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Recover(path)
		if err != nil {
			return // rejecting a hostile log is fine; panicking is not
		}
		// The recovered store must behave: a fresh workspace and commit go
		// through (tolerating collisions with whatever the input created).
		if err := s.CreateWorkspace(Workspace{ID: "fz-ws", Owner: "fz"}); err != nil && !errors.Is(err, ErrWorkspaceExists) {
			t.Fatalf("workspace create on recovered store: %v", err)
		}
		if _, err := s.CommitVersion(ItemVersion{
			Workspace: "fz-ws", ItemID: "fz-item", Path: "/fz", Version: 1, Status: Added,
		}); err != nil && !errors.Is(err, ErrVersionConflict) {
			t.Fatalf("commit on recovered store: %v", err)
		}
		if err := s.Close(); err != nil {
			t.Fatalf("close recovered store: %v", err)
		}
		// Recovery truncated any torn tail and appended complete records, so
		// a second pass over the repaired log must succeed.
		s2, err := Recover(path)
		if err != nil {
			t.Fatalf("second recovery of repaired wal: %v", err)
		}
		if _, err := s2.Workspace("fz-ws"); err != nil {
			t.Fatalf("workspace lost across recoveries: %v", err)
		}
		_ = s2.Close()
	})
}

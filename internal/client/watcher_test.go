package client

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"stacksync/internal/core"
	"stacksync/internal/mq"
)

// watchRig couples two directory watchers to two devices in one workspace.
func watchRig(t *testing.T) (*rig, *DirWatcher, string, *DirWatcher, string) {
	t.Helper()
	r := newRig(t)
	a := r.newDevice("alice", "dev-a")
	b := r.newDevice("bob", "dev-b")
	dirA := t.TempDir()
	dirB := t.TempDir()
	wa, err := NewDirWatcher(a, dirA, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	wb, err := NewDirWatcher(b, dirB, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	return r, wa, dirA, wb, dirB
}

// pump drives both watchers until cond holds or the deadline passes.
func pump(t *testing.T, cond func() bool, watchers ...*DirWatcher) {
	t.Helper()
	deadline := time.Now().Add(syncWait)
	for time.Now().Before(deadline) {
		for _, w := range watchers {
			if err := w.SyncOnce(); err != nil {
				t.Logf("sync once: %v", err)
			}
		}
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("condition not reached")
}

func TestWatcherPropagatesCreateToOtherDisk(t *testing.T) {
	_, wa, dirA, wb, dirB := watchRig(t)
	if err := os.WriteFile(filepath.Join(dirA, "report.txt"), []byte("quarterly"), 0o644); err != nil {
		t.Fatal(err)
	}
	target := filepath.Join(dirB, "report.txt")
	pump(t, func() bool {
		data, err := os.ReadFile(target)
		return err == nil && bytes.Equal(data, []byte("quarterly"))
	}, wa, wb)
}

func TestWatcherPropagatesModify(t *testing.T) {
	_, wa, dirA, wb, dirB := watchRig(t)
	src := filepath.Join(dirA, "doc.txt")
	if err := os.WriteFile(src, []byte("v1"), 0o644); err != nil {
		t.Fatal(err)
	}
	dst := filepath.Join(dirB, "doc.txt")
	pump(t, func() bool {
		data, err := os.ReadFile(dst)
		return err == nil && bytes.Equal(data, []byte("v1"))
	}, wa, wb)

	if err := os.WriteFile(src, []byte("v2 content"), 0o644); err != nil {
		t.Fatal(err)
	}
	pump(t, func() bool {
		data, err := os.ReadFile(dst)
		return err == nil && bytes.Equal(data, []byte("v2 content"))
	}, wa, wb)
}

func TestWatcherPropagatesDelete(t *testing.T) {
	_, wa, dirA, wb, dirB := watchRig(t)
	src := filepath.Join(dirA, "temp.txt")
	if err := os.WriteFile(src, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	dst := filepath.Join(dirB, "temp.txt")
	pump(t, func() bool {
		_, err := os.Stat(dst)
		return err == nil
	}, wa, wb)

	if err := os.Remove(src); err != nil {
		t.Fatal(err)
	}
	pump(t, func() bool {
		_, err := os.Stat(dst)
		return os.IsNotExist(err)
	}, wa, wb)
}

// A local delete whose tombstone never reaches the server must fail the scan
// and leave the path known, so a later scan retries it — even when the
// failure's text happens to say "not found".
func TestWatcherKeepsPathWhenTombstoneFails(t *testing.T) {
	r, wa, dirA, _, _ := watchRig(t)
	src := filepath.Join(dirA, "keep.txt")
	if err := os.WriteFile(src, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	pump(t, func() bool {
		_, ok := wa.c.Version("keep.txt")
		return ok
	}, wa)

	// Without the service queue the tombstone publish fails with the wrapped
	// mq.ErrQueueNotFound ("mq: queue not found"), not with ErrNoFile.
	if err := r.mq.DeleteQueue(core.ServiceOID); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(src); err != nil {
		t.Fatal(err)
	}
	if err := wa.SyncOnce(); !errors.Is(err, mq.ErrQueueNotFound) {
		t.Fatalf("scan after a failed tombstone publish = %v, want mq.ErrQueueNotFound", err)
	}
	wa.mu.Lock()
	_, known := wa.known["keep.txt"]
	wa.mu.Unlock()
	if !known {
		t.Fatal("watcher forgot a path whose delete never reached the server")
	}
}

func TestWatcherHandlesSubdirectories(t *testing.T) {
	_, wa, dirA, wb, dirB := watchRig(t)
	sub := filepath.Join(dirA, "projects", "go")
	if err := os.MkdirAll(sub, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(sub, "main.go"), []byte("package main"), 0o644); err != nil {
		t.Fatal(err)
	}
	target := filepath.Join(dirB, "projects", "go", "main.go")
	pump(t, func() bool {
		data, err := os.ReadFile(target)
		return err == nil && bytes.Equal(data, []byte("package main"))
	}, wa, wb)
}

func TestWatcherIgnoresDotfiles(t *testing.T) {
	r, wa, dirA, _, _ := watchRig(t)
	if err := os.WriteFile(filepath.Join(dirA, ".editor-swap"), []byte("tmp"), 0o644); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := wa.SyncOnce(); err != nil {
			t.Fatal(err)
		}
	}
	state, err := r.meta.State("ws")
	if err != nil {
		t.Fatal(err)
	}
	if len(state) != 0 {
		t.Fatalf("dotfile committed: %+v", state)
	}
}

func TestWatcherNoFeedbackLoop(t *testing.T) {
	// Applying a remote change to disk must not re-commit it.
	r, wa, dirA, wb, _ := watchRig(t)
	if err := os.WriteFile(filepath.Join(dirA, "f.txt"), []byte("once"), 0o644); err != nil {
		t.Fatal(err)
	}
	pump(t, func() bool {
		state, err := r.meta.State("ws")
		return err == nil && len(state) == 1 && state[0].Version == 1
	}, wa, wb)
	// Keep pumping; version must stay 1.
	for i := 0; i < 20; i++ {
		_ = wa.SyncOnce()
		_ = wb.SyncOnce()
	}
	state, err := r.meta.State("ws")
	if err != nil {
		t.Fatal(err)
	}
	if state[0].Version != 1 {
		t.Fatalf("feedback loop: version climbed to %d", state[0].Version)
	}
}

func TestWatcherBackgroundLoop(t *testing.T) {
	_, wa, dirA, wb, dirB := watchRig(t)
	wa.Start()
	wb.Start()
	defer wa.Stop()
	defer wb.Stop()
	if err := os.WriteFile(filepath.Join(dirA, "auto.txt"), []byte("hands free"), 0o644); err != nil {
		t.Fatal(err)
	}
	target := filepath.Join(dirB, "auto.txt")
	deadline := time.Now().Add(syncWait)
	for time.Now().Before(deadline) {
		if data, err := os.ReadFile(target); err == nil && bytes.Equal(data, []byte("hands free")) {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("background watchers never converged")
}

func TestWatcherRejectsNonDirectory(t *testing.T) {
	r := newRig(t)
	a := r.newDevice("alice", "dev-a")
	file := filepath.Join(t.TempDir(), "plain")
	if err := os.WriteFile(file, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := NewDirWatcher(a, file, time.Second); err == nil {
		t.Fatal("non-directory accepted")
	}
	if _, err := NewDirWatcher(a, filepath.Join(t.TempDir(), "missing"), time.Second); err == nil {
		t.Fatal("missing directory accepted")
	}
}

package client

import (
	"bytes"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"stacksync/internal/chunker"
	"stacksync/internal/obs"
)

// DirWatcher mirrors a real directory into a Client (the Watcher/Indexer
// pair of §4.1). A polling scanner detects local creations, modifications
// and deletions and proposes commits; pushed remote changes are applied back
// to disk. Content checksums break the feedback loop between the two
// directions.
type DirWatcher struct {
	c        *Client
	dir      string
	interval time.Duration
	// readFile reads one file during a scan (os.ReadFile; injectable so
	// tests can exercise transient read failures).
	readFile func(string) ([]byte, error)

	mu    sync.Mutex
	known map[string]string // sync path -> checksum of last agreed content

	// scanErrors counts per-file reads that failed transiently during a scan
	// (mid-write files, races with the OS); syncErrors counts whole cycles
	// that returned an error. Registry series labelled by device — steady
	// growth means the watcher is persistently unable to index some file.
	scanErrors *obs.Counter
	syncErrors *obs.Counter

	stop     chan struct{}
	done     chan struct{}
	stopOnce sync.Once
}

// NewDirWatcher prepares a watcher for dir. Call Start to begin syncing.
func NewDirWatcher(c *Client, dir string, interval time.Duration) (*DirWatcher, error) {
	info, err := os.Stat(dir)
	if err != nil {
		return nil, fmt.Errorf("client: watch dir: %w", err)
	}
	if !info.IsDir() {
		return nil, fmt.Errorf("client: watch dir: %s is not a directory", dir)
	}
	if interval <= 0 {
		interval = 200 * time.Millisecond
	}
	return &DirWatcher{
		c:        c,
		dir:      dir,
		interval: interval,
		readFile: os.ReadFile,
		known:    make(map[string]string),
		scanErrors: c.reg.Counter("client_watcher_scan_errors_total",
			"device", c.cfg.DeviceID),
		syncErrors: c.reg.Counter("client_watcher_sync_errors_total",
			"device", c.cfg.DeviceID),
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}, nil
}

// Start launches the watch loop. The client must already be started.
func (w *DirWatcher) Start() {
	go w.loop()
}

// Stop halts the loop and waits for it to exit.
func (w *DirWatcher) Stop() {
	w.stopOnce.Do(func() {
		close(w.stop)
		<-w.done
	})
}

// SyncOnce runs a single apply-remote + scan-local cycle; exposed so tests
// and examples can drive the watcher deterministically.
func (w *DirWatcher) SyncOnce() error {
	if err := w.applyRemote(); err != nil {
		return err
	}
	return w.scanLocal()
}

func (w *DirWatcher) loop() {
	defer close(w.done)
	ticker := time.NewTicker(w.interval)
	defer ticker.Stop()
	for {
		select {
		case <-w.stop:
			return
		case <-ticker.C:
			// Errors are transient (mid-write files, races with the OS);
			// the next tick retries — but they are counted, not swallowed.
			if err := w.SyncOnce(); err != nil {
				w.syncErrors.Inc()
			}
		}
	}
}

// applyRemote reconciles the synced state (client database) onto disk.
func (w *DirWatcher) applyRemote() error {
	// Current live paths and contents per the client.
	livePaths := make(map[string]bool)
	for _, p := range w.c.Paths() {
		livePaths[p] = true
		content, ok := w.c.FileContent(p)
		if !ok {
			continue
		}
		sum := chunker.Fingerprint(content)
		w.mu.Lock()
		agreed := w.known[p]
		w.mu.Unlock()
		if agreed == sum {
			continue
		}
		onDisk, err := os.ReadFile(w.diskPath(p))
		if err == nil && bytes.Equal(onDisk, content) {
			w.remember(p, sum)
			continue
		}
		if err == nil && agreed != chunker.Fingerprint(onDisk) {
			// Disk changed locally at the same time; let scanLocal pick the
			// local edit up first — the service will arbitrate.
			continue
		}
		if err := w.writeFile(p, content); err != nil {
			return err
		}
		w.remember(p, sum)
	}
	// Paths we knew that are no longer live were remotely deleted.
	w.mu.Lock()
	var gone []string
	for p := range w.known {
		if !livePaths[p] {
			gone = append(gone, p)
		}
	}
	w.mu.Unlock()
	for _, p := range gone {
		if _, ok := w.c.Version(p); ok {
			continue // still live after all
		}
		if w.c.ProposalPending(p) {
			// Our own add/update is still awaiting its ack: the path is not
			// in the database yet, but it was never remotely deleted. Leave
			// the file alone and reconcile on a later tick.
			continue
		}
		if err := os.Remove(w.diskPath(p)); err != nil && !os.IsNotExist(err) {
			return fmt.Errorf("client: remove %s: %w", p, err)
		}
		w.forget(p)
	}
	return nil
}

// scanLocal walks the directory and proposes commits for local changes. A
// vanished path paired with a new path holding identical content is
// detected as a rename and proposed as a metadata-only MoveFile.
func (w *DirWatcher) scanLocal() error {
	seen := make(map[string]bool)
	type newFile struct {
		path    string
		content []byte
		sum     string
	}
	var created []newFile
	err := filepath.WalkDir(w.dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			return nil
		}
		rel, err := filepath.Rel(w.dir, path)
		if err != nil {
			return err
		}
		syncPath := filepath.ToSlash(rel)
		if strings.HasPrefix(filepath.Base(syncPath), ".") {
			return nil // ignore dotfiles (editor temp files etc.)
		}
		seen[syncPath] = true
		content, err := w.readFile(path)
		if err != nil {
			w.scanErrors.Inc() // transient; retry next tick
			return nil
		}
		sum := chunker.Fingerprint(content)
		w.mu.Lock()
		agreed, ok := w.known[syncPath]
		w.mu.Unlock()
		if ok && agreed == sum {
			return nil
		}
		if !ok {
			// Defer: it may pair with a vanished path as a rename.
			created = append(created, newFile{path: syncPath, content: content, sum: sum})
			return nil
		}
		if err := w.c.PutFile(syncPath, content); err != nil {
			return fmt.Errorf("client: index %s: %w", syncPath, err)
		}
		w.remember(syncPath, sum)
		return nil
	})
	if err != nil {
		return err
	}
	// Known paths missing on disk were locally deleted — or renamed, when a
	// created file carries the same checksum.
	w.mu.Lock()
	goneByChecksum := make(map[string]string) // checksum -> old path
	var gone []string
	for p, sum := range w.known {
		if !seen[p] {
			gone = append(gone, p)
			goneByChecksum[sum] = p
		}
	}
	w.mu.Unlock()
	renamed := make(map[string]bool) // old paths consumed by renames
	for _, nf := range created {
		oldPath, isRename := goneByChecksum[nf.sum]
		if isRename && !renamed[oldPath] {
			if _, ok := w.c.Version(oldPath); ok {
				if err := w.c.MoveFile(oldPath, nf.path); err != nil {
					return fmt.Errorf("client: move %s -> %s: %w", oldPath, nf.path, err)
				}
				renamed[oldPath] = true
				w.forget(oldPath)
				w.remember(nf.path, nf.sum)
				continue
			}
		}
		if err := w.c.PutFile(nf.path, nf.content); err != nil {
			return fmt.Errorf("client: index %s: %w", nf.path, err)
		}
		w.remember(nf.path, nf.sum)
	}
	for _, p := range gone {
		if renamed[p] {
			continue
		}
		if _, ok := w.c.Version(p); !ok {
			if w.c.ProposalPending(p) {
				continue // ack in flight; revisit once the database has it
			}
			w.forget(p)
			continue // already deleted in sync state (remote delete)
		}
		if err := w.c.RemoveFile(p); err != nil && !errors.Is(err, ErrNoFile) {
			return err
		}
		w.forget(p)
	}
	return nil
}

func (w *DirWatcher) diskPath(syncPath string) string {
	return filepath.Join(w.dir, filepath.FromSlash(syncPath))
}

func (w *DirWatcher) writeFile(syncPath string, content []byte) error {
	full := w.diskPath(syncPath)
	if err := os.MkdirAll(filepath.Dir(full), 0o755); err != nil {
		return fmt.Errorf("client: mkdir for %s: %w", syncPath, err)
	}
	if err := os.WriteFile(full, content, 0o644); err != nil {
		return fmt.Errorf("client: write %s: %w", syncPath, err)
	}
	return nil
}

func (w *DirWatcher) remember(p, sum string) {
	w.mu.Lock()
	w.known[p] = sum
	w.mu.Unlock()
}

func (w *DirWatcher) forget(p string) {
	w.mu.Lock()
	delete(w.known, p)
	w.mu.Unlock()
}

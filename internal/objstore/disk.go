package objstore

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"

	"stacksync/internal/obs"
)

// Disk is a filesystem-backed Store: one directory per container, one file
// per object. Keys are chunk fingerprints (hex), so they are always safe
// path components; other keys are sanitized.
//
// Disk also keeps a copy of each small object it recently wrote and serves
// GetMulti from it before opening the file: a commit's new chunk is read
// back by every other device of the workspace right after it lands
// (DESIGN §12).
type Disk struct {
	root string

	// mu orders each put's rename with its update of recent, so two
	// overwrites of one key leave recent agreeing with the file.
	mu     sync.Mutex
	recent recentSet

	gets, recentHits atomic.Uint64
}

// The recent-object set's limits (DESIGN §12). Objects over recentMaxObject
// stay with the page cache: copying them costs more than the read saves.
const (
	recentMaxObject = 64 << 10
	recentBudget    = 1 << 20
)

// recentSet holds copies of recently written small objects, by file path,
// evicting first-in first-out past recentBudget bytes.
type recentSet struct {
	data  map[string][]byte
	order []string // insertion order; may name paths since dropped
	bytes int
}

// put stores data (owned by the set) under path, or drops path when data
// is nil.
func (r *recentSet) put(path string, data []byte) {
	old, had := r.data[path]
	r.bytes -= len(old)
	if data == nil {
		delete(r.data, path)
		return
	}
	if r.data == nil {
		r.data = make(map[string][]byte)
	}
	r.data[path] = data
	r.bytes += len(data)
	if !had {
		r.order = append(r.order, path)
	}
	for r.bytes > recentBudget && len(r.order) > 0 {
		victim := r.order[0]
		r.order = r.order[1:]
		r.bytes -= len(r.data[victim])
		delete(r.data, victim)
	}
}

var _ Store = (*Disk)(nil)

// NewDisk roots a store at dir, creating it if needed.
func NewDisk(dir string) (*Disk, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("objstore: create root: %w", err)
	}
	return &Disk{root: dir}, nil
}

// Register exposes the read counters on reg as objstore_disk_gets_total
// (objects GetMulti asked for) and objstore_disk_recent_hits_total (those
// served from the recent-object set).
func (d *Disk) Register(reg *obs.Registry) {
	reg.GaugeFunc("objstore_disk_gets_total", func() float64 { return float64(d.gets.Load()) })
	reg.GaugeFunc("objstore_disk_recent_hits_total", func() float64 { return float64(d.recentHits.Load()) })
}

func safeName(s string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_', r == '.':
			return r
		default:
			return '_'
		}
	}, s)
}

func (d *Disk) containerPath(container string) string {
	return filepath.Join(d.root, safeName(container))
}

// EnsureContainer creates the container directory if missing.
func (d *Disk) EnsureContainer(ctx context.Context, container string) error {
	if err := ctxErr(ctx, "ensure", container); err != nil {
		return err
	}
	if err := os.MkdirAll(d.containerPath(container), 0o755); err != nil {
		return fmt.Errorf("objstore: ensure container %s: %w", container, err)
	}
	return nil
}

// dir returns the directory of an existing container.
func (d *Disk) dir(ctx context.Context, op, container string) (string, error) {
	if err := ctxErr(ctx, op, container); err != nil {
		return "", err
	}
	dir := d.containerPath(container)
	if _, err := os.Stat(dir); err != nil {
		return "", opErr(op, container, "", ErrNoContainer)
	}
	return dir, nil
}

// PutMulti writes each object atomically (temp file + rename), re-checking
// ctx between files.
func (d *Disk) PutMulti(ctx context.Context, container string, objects []Object) error {
	dir, err := d.dir(ctx, "putmulti", container)
	if err != nil {
		return err
	}
	for _, o := range objects {
		if err := ctxErr(ctx, "putmulti", container); err != nil {
			return err
		}
		if err := d.writeFile(filepath.Join(dir, safeName(o.Key)), o.Data); err != nil {
			return opErr("putmulti", container, o.Key, err)
		}
	}
	return nil
}

// writeFile writes path through a temp file renamed into place, so a reader
// never sees a partial object, and records a copy of small data — never the
// caller's buffer — in the recent-object set.
func (d *Disk) writeFile(path string, data []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".put-*")
	if err != nil {
		return err
	}
	_, err = tmp.Write(data)
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		_ = os.Remove(tmp.Name())
		return err
	}
	var kept []byte // nil drops an older copy of an object now too large
	if len(data) <= recentMaxObject {
		kept = append([]byte{}, data...)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := os.Rename(tmp.Name(), path); err != nil {
		_ = os.Remove(tmp.Name())
		return err
	}
	d.recent.put(path, kept)
	return nil
}

// GetMulti reads each object, re-checking ctx between files.
func (d *Disk) GetMulti(ctx context.Context, container string, keys []string) ([][]byte, error) {
	dir, err := d.dir(ctx, "getmulti", container)
	if err != nil {
		return nil, err
	}
	return getEach(ctx, container, keys, func(k string) ([]byte, error) {
		path := filepath.Join(dir, safeName(k))
		d.gets.Add(1)
		d.mu.Lock()
		kept, ok := d.recent.data[path]
		d.mu.Unlock()
		if ok { // kept is never written to; the caller gets its own copy
			d.recentHits.Add(1)
			return append([]byte{}, kept...), nil
		}
		data, err := readFile(path)
		if errors.Is(err, os.ErrNotExist) {
			err = ErrNotFound
		}
		if err != nil {
			return nil, opErr("getmulti", container, k, err)
		}
		return data, nil
	})
}

// readFile reads a file with one read(2) sized by fstat, where os.ReadFile
// reads again to see EOF: objects are immutable and appear by rename.
func readFile(path string) ([]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	data := make([]byte, fi.Size())
	if _, err := io.ReadFull(f, data); err != nil {
		return nil, err
	}
	return data, nil
}

// ExistsMulti stats each object, re-checking ctx between files.
func (d *Disk) ExistsMulti(ctx context.Context, container string, keys []string) ([]bool, error) {
	dir, err := d.dir(ctx, "existsmulti", container)
	if err != nil {
		return nil, err
	}
	out := make([]bool, len(keys))
	for i, k := range keys {
		if err := ctxErr(ctx, "existsmulti", container); err != nil {
			return nil, err
		}
		_, err := os.Stat(filepath.Join(dir, safeName(k)))
		if err != nil && !errors.Is(err, os.ErrNotExist) {
			return nil, opErr("existsmulti", container, k, err)
		}
		out[i] = err == nil
	}
	return out, nil
}

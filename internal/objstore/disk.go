package objstore

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"stacksync/internal/obs"
	"stacksync/internal/reclog"
)

// Disk is a filesystem-backed Store: one append-only log, the Haystack/
// Bitcask layout, as a record log (DESIGN §12, §20) under logMagic. A payload
// is a record type, a container name and, for a put, a key and the object's
// bytes; names are uvarint-length-prefixed. An in-memory index maps each
// object to its last put: no path is derived from any name. A root belongs
// to one open Disk. Records are appended through the log's mapped tail, and
// a get copies one still in the mapped window from there: every other
// device of a workspace reads a commit's new chunk right away.
type Disk struct {
	f   *os.File // read where a record has left the window
	log *reclog.Writer

	// mu orders each append with its index entry, so readers find whole
	// records only.
	mu         sync.Mutex
	containers map[string]bool
	index      map[objKey]extent

	gets, fileReads atomic.Uint64
}

type objKey struct{ container, key string }

// extent places an object's record: its n-byte payload starts at off, the
// object's bytes at payload offset data, and the CRC follows.
type extent struct {
	off     int64
	n, data int
}

const (
	logName                   = "objects.log"
	logMagic                  = "SSOBJLG1"
	recContainer, recPut byte = 1, 2
)

var _ Store = (*Disk)(nil)

// NewDisk opens the store rooted at dir, creating it if needed: it replays
// the log into the index and cuts off a torn tail, so appends follow the
// last whole record. A root another Disk has open is refused, and so is a
// root holding a directory, as the one-file-per-object layout did.
func NewDisk(dir string) (*Disk, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("objstore: create root: %w", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("objstore: read root: %w", err)
	}
	for _, e := range entries {
		if e.IsDir() {
			return nil, fmt.Errorf("objstore: %s holds directory %q: the one-file-per-object layout of earlier versions is not read", dir, e.Name())
		}
	}
	d := &Disk{containers: make(map[string]bool), index: make(map[objKey]extent)}
	f, end, err := reclog.Open(filepath.Join(dir, logName), logMagic, d.apply)
	if err != nil {
		return nil, fmt.Errorf("objstore: open chunk log: %w", err)
	}
	d.f, d.log = f, reclog.NewWriter(reclog.MapTail(f), end, false, nil)
	return d, nil
}

// Close cuts the log's preallocated tail and closes it.
func (d *Disk) Close() error { return d.log.Close() }

// apply indexes the record whose payload p starts at off.
func (d *Disk) apply(p []byte, off int64) bool {
	if len(p) == 0 {
		return false
	}
	r := reclog.NewDecoder(p[1:])
	container := r.Str()
	if p[0] == recContainer && r.Done() {
		d.containers[container] = true
		return true
	}
	key := r.Str()
	if !r.OK() || p[0] != recPut || !d.containers[container] {
		return false
	}
	d.index[objKey{container, key}] = extent{off: off, n: len(p), data: len(p) - len(r.Rest())}
	return true
}

// Register exposes on reg the objects GetMulti was asked for and those it
// had to read from the file, the log's length and the objects it holds.
func (d *Disk) Register(reg *obs.Registry) {
	reg.GaugeFunc("objstore_disk_gets_total", func() float64 { return float64(d.gets.Load()) })
	reg.GaugeFunc("objstore_disk_file_reads_total", func() float64 { return float64(d.fileReads.Load()) })
	reg.GaugeFunc("objstore_disk_log_bytes", func() float64 { return float64(d.log.End()) })
	reg.GaugeFunc("objstore_disk_objects", func() float64 {
		d.mu.Lock()
		defer d.mu.Unlock()
		return float64(len(d.index))
	})
}

// EnsureContainer logs a container record the first time it sees a name.
func (d *Disk) EnsureContainer(ctx context.Context, container string) error {
	if err := ctxErr(ctx, "ensure", container); err != nil {
		return err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.containers[container] {
		return nil
	}
	if _, err := d.log.Append(reclog.AppendString([]byte{recContainer}, container)); err != nil {
		return fmt.Errorf("objstore: ensure container %s: %w", container, err)
	}
	d.containers[container] = true
	return nil
}

// check fails op on a canceled ctx or a missing container.
func (d *Disk) check(ctx context.Context, op, container string) error {
	if err := ctxErr(ctx, op, container); err != nil {
		return err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if !d.containers[container] {
		return opErr(op, container, "", ErrNoContainer)
	}
	return nil
}

// PutMulti appends one record per object, framed straight into the log's
// mapped tail, and indexes each as it is stored.
func (d *Disk) PutMulti(ctx context.Context, container string, objects []Object) error {
	if err := d.check(ctx, "putmulti", container); err != nil {
		return err
	}
	var head []byte
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, o := range objects {
		head = reclog.AppendString(reclog.AppendString(append(head[:0], recPut), container), o.Key)
		end, err := d.log.Append(head, o.Data)
		if err != nil {
			return opErr("putmulti", container, o.Key, err)
		}
		n := len(head) + len(o.Data)
		d.index[objKey{container, o.Key}] = extent{off: end - 4 - int64(n), n: n, data: len(head)}
	}
	return nil
}

// GetMulti copies each object's record from the log's mapped window, or
// reads it with one read once it has left the window, and checks its CRC:
// a damaged record is an error, never data.
func (d *Disk) GetMulti(ctx context.Context, container string, keys []string) ([][]byte, error) {
	if err := d.check(ctx, "getmulti", container); err != nil {
		return nil, err
	}
	return getEach(ctx, container, keys, func(k string) ([]byte, error) {
		d.gets.Add(1)
		d.mu.Lock()
		e, ok := d.index[objKey{container, k}]
		d.mu.Unlock()
		if !ok {
			return nil, opErr("getmulti", container, k, ErrNotFound)
		}
		rec := make([]byte, e.n+4)
		if !d.log.ReadAt(rec, e.off) {
			d.fileReads.Add(1)
			if _, err := d.f.ReadAt(rec, e.off); err != nil {
				return nil, opErr("getmulti", container, k, err)
			}
		}
		if !reclog.Check(rec) {
			return nil, opErr("getmulti", container, k, errors.New("record fails its checksum"))
		}
		return rec[e.data:e.n:e.n], nil
	})
}

// ExistsMulti reads the index alone: it makes no system call.
func (d *Disk) ExistsMulti(ctx context.Context, container string, keys []string) ([]bool, error) {
	if err := d.check(ctx, "existsmulti", container); err != nil {
		return nil, err
	}
	out := make([]bool, len(keys))
	d.mu.Lock()
	defer d.mu.Unlock()
	for i, k := range keys {
		_, out[i] = d.index[objKey{container, k}]
	}
	return out, nil
}

package objstore

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
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
// to one open Disk; nothing orders the appends of two. Disk also keeps a
// copy of each small object it recently wrote and serves GetMulti from it:
// every other device of a workspace reads a commit's new chunk right away.
type Disk struct {
	f *os.File

	// mu orders each append with its index and recent-set updates, so
	// readers find whole records only and recent agrees with the log.
	mu         sync.Mutex
	end        int64 // end of the last whole record, where the next append goes
	containers map[string]bool
	index      map[objKey]extent
	recent     recentSet

	gets, recentHits atomic.Uint64
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

// The recent-object set's limits (DESIGN §12). Objects over recentMaxObject
// stay with the page cache: copying them costs more than the read saves.
const (
	recentMaxObject = 64 << 10
	recentBudget    = 1 << 20
)

// recentSet holds copies of recently written small objects, evicting
// first-in first-out past recentBudget bytes.
type recentSet struct {
	data  map[objKey][]byte
	order []objKey // insertion order; may name objects since dropped
	bytes int
}

// put keeps a copy of data — never the caller's buffer — under id, or
// drops id when data is over recentMaxObject.
func (r *recentSet) put(id objKey, data []byte) {
	old, had := r.data[id]
	r.bytes -= len(old)
	if len(data) > recentMaxObject {
		delete(r.data, id)
		return
	}
	if r.data == nil {
		r.data = make(map[objKey][]byte)
	}
	r.data[id] = clone(data)
	r.bytes += len(data)
	if !had {
		r.order = append(r.order, id)
	}
	for r.bytes > recentBudget && len(r.order) > 0 {
		victim := r.order[0]
		r.order = r.order[1:]
		r.bytes -= len(r.data[victim])
		delete(r.data, victim)
	}
}

var _ Store = (*Disk)(nil)

// NewDisk opens the store rooted at dir, creating it if needed: it replays
// the log into the index and cuts off a torn tail, so appends follow the
// last whole record. A root holding a directory, as the one-file-per-object
// layout of earlier versions did, is refused.
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
	if d.f, d.end, err = reclog.Open(filepath.Join(dir, logName), logMagic, d.apply); err != nil {
		return nil, fmt.Errorf("objstore: open chunk log: %w", err)
	}
	return d, nil
}

// Close closes the log.
func (d *Disk) Close() error { return d.f.Close() }

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

// appendLocked writes buf at the end of the log in one write; the caller
// holds d.mu. A failed write is cut off again, so no part of it can be
// replayed behind a later record.
func (d *Disk) appendLocked(buf []byte) error {
	if _, err := d.f.WriteAt(buf, d.end); err != nil {
		_ = d.f.Truncate(d.end) // the write's error is the one to report
		return err
	}
	d.end += int64(len(buf))
	return nil
}

// Register exposes on reg the objects GetMulti was asked for and those the
// recent-object set served, the log's length and the objects it holds.
func (d *Disk) Register(reg *obs.Registry) {
	reg.GaugeFunc("objstore_disk_gets_total", func() float64 { return float64(d.gets.Load()) })
	reg.GaugeFunc("objstore_disk_recent_hits_total", func() float64 { return float64(d.recentHits.Load()) })
	reg.GaugeFunc("objstore_disk_log_bytes", func() float64 { return d.stat(func() int { return int(d.end) }) })
	reg.GaugeFunc("objstore_disk_objects", func() float64 { return d.stat(func() int { return len(d.index) }) })
}

// stat reads v under d.mu, for a gauge.
func (d *Disk) stat(v func() int) float64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return float64(v())
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
	if err := d.appendLocked(reclog.Frame(nil, reclog.AppendString([]byte{recContainer}, container))); err != nil {
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

// frameBufs recycles PutMulti's framing buffers, so a batch neither
// allocates nor zeroes one; one over 4 MB, a rare huge batch, is dropped.
var frameBufs = sync.Pool{New: func() any { return new([]byte) }}

// PutMulti frames the whole batch into one buffer, appends it with one
// write, and then indexes it and puts it in the recent-object set.
func (d *Disk) PutMulti(ctx context.Context, container string, objects []Object) error {
	if err := d.check(ctx, "putmulti", container); err != nil {
		return err
	}
	size := 0
	for _, o := range objects {
		size += 3*binary.MaxVarintLen64 + 5 + len(container) + len(o.Key) + len(o.Data)
	}
	pooled := frameBufs.Get().(*[]byte)
	buf, head := slices.Grow((*pooled)[:0], size), []byte(nil)
	places := make([]extent, len(objects))
	for i, o := range objects {
		head = reclog.AppendString(reclog.AppendString(append(head[:0], recPut), container), o.Key)
		buf = reclog.Frame(buf, head, o.Data)
		n := len(head) + len(o.Data)
		places[i] = extent{off: int64(len(buf) - 4 - n), n: n, data: len(head)}
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	base := d.end
	err := d.appendLocked(buf)
	if *pooled = buf; cap(buf) <= 4<<20 {
		frameBufs.Put(pooled)
	}
	if err != nil {
		return opErr("putmulti", container, "", err)
	}
	for i, o := range objects {
		places[i].off += base
		d.index[objKey{container, o.Key}] = places[i]
		d.recent.put(objKey{container, o.Key}, o.Data)
	}
	return nil
}

// GetMulti serves each object from the recent-object set, or reads its
// record with one read and checks its CRC: a damaged record is an error,
// never data.
func (d *Disk) GetMulti(ctx context.Context, container string, keys []string) ([][]byte, error) {
	if err := d.check(ctx, "getmulti", container); err != nil {
		return nil, err
	}
	return getEach(ctx, container, keys, func(k string) ([]byte, error) {
		id := objKey{container, k}
		d.gets.Add(1)
		d.mu.Lock()
		kept, hit := d.recent.data[id]
		e, ok := d.index[id]
		d.mu.Unlock()
		if hit { // kept is never written to; the caller gets its own copy
			d.recentHits.Add(1)
			return clone(kept), nil
		}
		if !ok {
			return nil, opErr("getmulti", container, k, ErrNotFound)
		}
		rec := make([]byte, e.n+4)
		if _, err := d.f.ReadAt(rec, e.off); err != nil {
			return nil, opErr("getmulti", container, k, err)
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

// Package metastore is the Metadata back-end substrate (paper: PostgreSQL
// 9.1). It stores workspaces and each item's current version and gives the
// SyncService the one property Algorithm 1 leans on: the version-precedence
// check and the write of the new version commit atomically, so concurrent
// commitRequests over the same version serialize into one winner and one
// conflict (first-committer-wins).
//
// The paper's data model is per-workspace item-version tables with no
// cross-workspace invariants, so every workspace has one writer: its
// commits, WAL replay and compactions serialize under its own mutex, and a
// CommitBatch is one workspace's transaction. An optional write-ahead log
// makes committed state durable; concurrent committers share its
// group-commit flush (see wal.go).
//
// Reads take no workspace lock: the workspace table and every workspace's
// immutable MVCC snapshot (copy-on-write item table + append-only change
// log) are published through atomic pointers, the snapshot installed by
// its writer with one pointer swap — see mvcc.go and DESIGN §16. The two
// reads the SyncService serves, ChangesSince and WorkspacesFor, then wait
// for the WAL, taking its writer's mutex: a writer publishes before its
// records are synced, and a reader must not see what a crash takes back.
package metastore

import (
	"errors"
	"fmt"
	"maps"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"stacksync/internal/faults"
	"stacksync/internal/obs"
)

// Status is the lifecycle state of an item version.
type Status int

const (
	// Added marks the first version of a new item.
	Added Status = iota + 1
	// Modified marks a content or rename change.
	Modified
	// Deleted marks a tombstone version.
	Deleted
)

// String names the status.
func (s Status) String() string {
	switch s {
	case Added:
		return "ADD"
	case Modified:
		return "UPDATE"
	case Deleted:
		return "REMOVE"
	default:
		return "UNKNOWN"
	}
}

// Workspace is a synced folder shared by one or more users (§4.1).
type Workspace struct {
	ID      string   `json:"id"`
	Owner   string   `json:"owner"`
	Members []string `json:"members,omitempty"`
}

// ItemVersion is one version of one item in a workspace — the row the
// SyncService commits. Chunks lists the fingerprints needed to rebuild the
// file, so a losing client can fetch exactly the missing chunks (§4.2.1).
type ItemVersion struct {
	Workspace   string    `json:"workspace"`
	ItemID      string    `json:"itemId"`
	Path        string    `json:"path"`
	Version     uint64    `json:"version"`
	Status      Status    `json:"status"`
	Size        int64     `json:"size"`
	Chunks      []string  `json:"chunks,omitempty"`
	Checksum    string    `json:"checksum,omitempty"`
	DeviceID    string    `json:"deviceId,omitempty"`
	CommittedAt time.Time `json:"committedAt"`
}

// Errors returned by the store.
var (
	ErrWorkspaceExists = errors.New("metastore: workspace exists")
	ErrNoWorkspace     = errors.New("metastore: workspace not found")
	ErrVersionConflict = errors.New("metastore: version conflict")
	ErrClosed          = errors.New("metastore: store closed")
	ErrMixedBatch      = errors.New("metastore: batch spans workspaces")
	// ErrTxAborted is a transient, injected transaction rollback: the commit
	// was not applied and may be retried verbatim.
	ErrTxAborted = errors.New("metastore: transaction aborted")
)

// Store is the metadata database.
type Store struct {
	mu     sync.Mutex              // serializes CreateWorkspace
	ws     atomic.Pointer[wsTable] // copied on create, read lock-free
	wal    *WAL
	now    func() time.Time
	closed atomic.Bool

	logRetention int // WithLogRetention hint, resolved in NewStore

	// Fault injection (nil in production): transaction aborts, delays and
	// torn WAL writes, rolled per commit.
	fplan *faults.Plan
	fsite string
	fkeys faults.Keyer

	// MVCC bookkeeping, maintained whether or not a registry is attached:
	// logEntries tracks the summed change-log length, lastInstall the newest
	// snapshot's install time (unix nanos; 0 before the first commit).
	logEntries  atomic.Int64
	lastInstall atomic.Int64

	reg *obs.Registry
	// Counters (nil without a registry): writers that found their
	// workspace's lock taken, ChangesSince outcomes, snapshot installs,
	// compaction runs and dropped entries.
	contention                          *obs.Counter
	chTail, chFull, chEmpty, chFallback *obs.Counter
	snapInstalls, compactions           *obs.Counter
	compactedEntries                    *obs.Counter
}

// inc bumps a counter when a registry is attached. Counters are plain
// atomics, so this keeps the lock-free read path lock-free.
func (s *Store) inc(c *obs.Counter) {
	if c != nil {
		c.Inc()
	}
}

// Option configures a Store.
type Option func(*Store)

// WithNow substitutes the timestamp source.
func WithNow(now func() time.Time) Option {
	return func(s *Store) { s.now = now }
}

// WithRegistry wires the store (and its WAL, if any) into a metrics
// registry: writer contention, read-path and snapshot counters, and
// group-commit flush metrics.
func WithRegistry(reg *obs.Registry) Option {
	return func(s *Store) { s.reg = reg }
}

// WithFaults wires deterministic fault injection into the transaction path:
// a commit may be rolled back with ErrTxAborted (transient — the caller's
// retry/redelivery layer must re-submit), may stall before taking its
// workspace's lock, or may tear the next WAL record as if the process
// crashed mid-append.
func WithFaults(plan *faults.Plan, site string) Option {
	return func(s *Store) { s.fplan, s.fsite = plan, site }
}

// injectTx rolls one transaction-level fault. It runs before the workspace
// lock is taken, so an injected delay stalls only this commit — readers and
// other writers proceed.
func (s *Store) injectTx() error {
	if s.fplan == nil {
		return nil
	}
	k := s.fkeys.Next()
	d := s.fplan.Decide(s.fsite, k)
	switch d.Kind {
	case faults.Abort:
		s.fplan.Note(s.fsite, k, faults.Abort, s.now())
		return ErrTxAborted
	case faults.Torn:
		if s.wal != nil {
			s.fplan.Note(s.fsite, k, faults.Torn, s.now())
			s.wal.TearNext()
		}
	case faults.Delay:
		s.fplan.Note(s.fsite, k, faults.Delay, s.now())
		time.Sleep(d.Delay)
	}
	return nil
}

// NewStore returns an empty metadata store.
func NewStore(opts ...Option) *Store {
	s := &Store{now: time.Now, logRetention: DefaultLogRetention}
	for _, opt := range opts {
		opt(s)
	}
	s.logRetention = max(s.logRetention, 2)
	s.ws.Store(&wsTable{})
	if s.reg != nil {
		s.contention = s.reg.Counter("metastore_commit_contention_total")
		s.chTail = s.reg.Counter("metastore_changes_since_total", "result", "tail")
		s.chFull = s.reg.Counter("metastore_changes_since_total", "result", "full")
		s.chEmpty = s.reg.Counter("metastore_changes_since_total", "result", "empty")
		s.chFallback = s.reg.Counter("metastore_changes_compaction_fallback_total")
		s.snapInstalls = s.reg.Counter("metastore_snapshot_installs_total")
		s.compactions = s.reg.Counter("metastore_log_compactions_total")
		s.compactedEntries = s.reg.Counter("metastore_log_compacted_entries_total")
		s.reg.GaugeFunc("metastore_log_entries", func() float64 {
			return float64(s.logEntries.Load())
		})
		s.reg.GaugeFunc("metastore_snapshot_age_seconds", func() float64 {
			last := s.lastInstall.Load()
			if last == 0 {
				return 0
			}
			return time.Duration(s.now().UnixNano() - last).Seconds()
		})
	}
	return s
}

// lookupWS resolves a workspace without taking any lock.
func (s *Store) lookupWS(workspace string) (*wsState, bool) {
	w, ok := (*s.ws.Load())[workspace]
	return w, ok
}

// CreateWorkspace registers a workspace. Its WAL record is appended before
// the table publishes the workspace, so no commit to it can reach the log
// first: replay meets every workspace before its first version.
func (s *Store) CreateWorkspace(ws Workspace) error {
	s.mu.Lock()
	old := *s.ws.Load()
	_, exists := old[ws.ID]
	var err error
	switch {
	case s.closed.Load():
		err = ErrClosed
	case exists:
		err = fmt.Errorf("metastore: create %q: %w", ws.ID, ErrWorkspaceExists)
	default:
		err = s.wal.append(walWorkspace, &ws)
	}
	if err == nil {
		st := &wsState{meta: ws}
		st.snap.Store(emptySnapshot())
		next := maps.Clone(old)
		next[ws.ID] = st
		s.ws.Store(&next)
	}
	off := s.wal.end()
	s.mu.Unlock()
	if err != nil {
		return err
	}
	return s.wal.wait(off)
}

// WorkspacesFor lists the workspaces a user owns or is a member of —
// the getWorkspaces operation's backing query. It walks the published
// workspace table without the store mutex, then waits until the WAL holds
// it, as ChangesSince does.
func (s *Store) WorkspacesFor(user string) ([]Workspace, error) {
	var out []Workspace
	for _, w := range *s.ws.Load() {
		ws := w.meta
		if ws.Owner == user || slices.Contains(ws.Members, user) {
			out = append(out, ws)
		}
	}
	if err := s.wal.wait(s.wal.end()); err != nil {
		return nil, err
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out, nil
}

// Workspace fetches a workspace by id.
func (s *Store) Workspace(id string) (Workspace, error) {
	w, ok := s.lookupWS(id)
	if !ok {
		return Workspace{}, fmt.Errorf("metastore: %q: %w", id, ErrNoWorkspace)
	}
	return w.meta, nil
}

// Current returns the latest version of an item, with ok=false when the
// item has never been committed (Algorithm 1 line 4). Lock-free snapshot
// read.
func (s *Store) Current(workspace, itemID string) (ItemVersion, bool, error) {
	sn, err := s.snapshotOf(workspace)
	if err != nil {
		return ItemVersion{}, false, err
	}
	cur, ok := sn.items[itemID]
	if !ok {
		return ItemVersion{}, false, nil
	}
	return *cur, true, nil
}

// write runs fn as its workspace's one writer. Every write takes this
// sequence — CommitBatch, WAL replay and CompactLog: check closed, lock the
// workspace, re-check closed, open its wsWrite, and install what fn built
// unless fn fails.
func (s *Store) write(workspace string, fn func(*wsWrite) error) error {
	if s.closed.Load() {
		return ErrClosed
	}
	w, ok := s.lookupWS(workspace)
	if !ok {
		return fmt.Errorf("metastore: write to %q: %w", workspace, ErrNoWorkspace)
	}
	if !w.mu.TryLock() {
		s.inc(s.contention)
		w.mu.Lock()
	}
	defer w.mu.Unlock()
	if s.closed.Load() {
		return ErrClosed
	}
	b := w.snap.Load()
	wr := &wsWrite{st: s, w: w, base: b, items: b.items, log: b.log, version: b.version, logStart: b.logStart}
	if err := fn(wr); err != nil {
		return err
	}
	wr.install()
	return nil
}

// CommitVersion commits one proposal: a CommitBatch of one, with a conflict
// returned as ErrVersionConflict carrying the authoritative current
// version, which the service piggybacks on the CommitNotification so the
// losing client can reconstruct the file.
func (s *Store) CommitVersion(v ItemVersion) (ItemVersion, error) {
	res, err := s.CommitBatch([]ItemVersion{v})
	if err != nil {
		return ItemVersion{}, err
	}
	if !res[0].Committed {
		return res[0].Version, fmt.Errorf("metastore: %s v%d: %w", v.ItemID, v.Version, ErrVersionConflict)
	}
	return res[0].Version, nil
}

// BatchResult is one element of a CommitBatch outcome. Each proposal
// succeeds or conflicts independently (Algorithm 1 loops per object); the
// returned slice is parallel to the input, and conflicted entries carry the
// authoritative current version.
type BatchResult struct {
	Committed bool        `json:"committed"`
	Version   ItemVersion `json:"version"` // committed version, or current on conflict
}

// CommitBatch applies Algorithm 1's version-precedence check to proposals
// of one workspace, as one transaction (the paper's per-workspace
// transaction): each proposal commits or conflicts against the state the
// earlier ones left, and one pointer swap publishes them all. A batch that
// names more than one workspace is refused with ErrMixedBatch before
// anything commits.
//
// The WAL records of the versions committed fresh are appended under the
// workspace's lock, which fixes their order, and awaited after its release,
// so concurrent committers share one group-commit flush. A replayed
// proposal that already committed is re-acknowledged and appends nothing.
func (s *Store) CommitBatch(proposals []ItemVersion) ([]BatchResult, error) {
	if len(proposals) == 0 {
		return nil, nil
	}
	ws := proposals[0].Workspace
	for _, p := range proposals[1:] {
		if p.Workspace != ws {
			return nil, fmt.Errorf("metastore: batch names %q and %q: %w", ws, p.Workspace, ErrMixedBatch)
		}
	}
	if err := s.injectTx(); err != nil {
		return nil, err
	}
	results := make([]BatchResult, len(proposals))
	var off int64
	err := s.write(ws, func(wr *wsWrite) error {
		for i, p := range proposals {
			v, o := wr.commit(p)
			results[i] = BatchResult{Committed: o != conflict, Version: v}
			if o == fresh {
				if err := s.wal.append(walVersion, &results[i].Version); err != nil {
					return err
				}
			}
		}
		// Wait for the log as it stands, not just for this batch's records:
		// a version a replay re-acknowledges may still await its fsync.
		off = s.wal.end()
		return nil
	})
	if err == nil {
		err = s.wal.wait(off)
	}
	if err != nil {
		return nil, err
	}
	return results, nil
}

// State returns the latest version of every non-deleted item in a
// workspace — the costly getChanges snapshot clients fetch at startup.
// Lock-free: the whole reply is computed from one immutable snapshot, so a
// concurrent CommitBatch is seen entirely or not at all.
func (s *Store) State(workspace string) ([]ItemVersion, error) {
	sn, err := s.snapshotOf(workspace)
	if err != nil {
		return nil, err
	}
	return sn.live(), nil
}

// CommitVersionOf reports the workspace's current committed version counter.
func (s *Store) CommitVersionOf(workspace string) (uint64, error) {
	sn, err := s.snapshotOf(workspace)
	if err != nil {
		return 0, err
	}
	return sn.version, nil
}

// snapshotOf loads the workspace's current snapshot, lock-free.
func (s *Store) snapshotOf(workspace string) (*snapshot, error) {
	w, ok := s.lookupWS(workspace)
	if !ok {
		return nil, fmt.Errorf("metastore: %q: %w", workspace, ErrNoWorkspace)
	}
	return w.snap.Load(), nil
}

// Close syncs the WAL and rejects further writes. It first waits out every
// writer that passed its closed check before the flag flipped (a creator
// holds the store mutex, a committer its workspace's), then closes the log.
func (s *Store) Close() error {
	if !s.closed.CompareAndSwap(false, true) {
		return nil
	}
	s.mu.Lock()
	for _, w := range *s.ws.Load() {
		// Empty critical section on purpose: entering the lock waits out
		// the workspace's writer.
		w.mu.Lock()
		w.mu.Unlock()
	}
	s.mu.Unlock()
	return s.wal.Close()
}

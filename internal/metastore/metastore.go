// Package metastore is the Metadata back-end substrate (paper: PostgreSQL
// 9.1). It stores workspaces and per-item version chains and gives the
// SyncService the one property Algorithm 1 leans on: the version-precedence
// check and the write of the new version commit atomically, so concurrent
// commitRequests over the same version serialize into one winner and one
// conflict (first-committer-wins).
//
// The paper's data model is per-workspace item-version tables with no
// cross-workspace invariants, so the store shards its state by workspace ID:
// commits to the same workspace serialize under that shard's writer lock,
// while commits to distinct workspaces proceed concurrently. An optional
// write-ahead log makes committed state durable; concurrent committers share
// its group-commit flush (see wal.go).
//
// Reads never take the shard lock: every workspace publishes an immutable
// MVCC snapshot (copy-on-write item table + append-only change log) through
// an atomic pointer, installed by the committer with one pointer swap — see
// mvcc.go and DESIGN §16.
package metastore

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
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
	ErrNoItem          = errors.New("metastore: item not found")
	ErrClosed          = errors.New("metastore: store closed")
	ErrTxDone          = errors.New("metastore: transaction finished")
	// ErrTxAborted is a transient, injected transaction rollback: the commit
	// was not applied and may be retried verbatim.
	ErrTxAborted = errors.New("metastore: transaction aborted")
)

type itemChain struct {
	versions []ItemVersion // ascending by Version
}

func (c *itemChain) current() ItemVersion { return c.versions[len(c.versions)-1] }

// shard holds the workspaces that hash to it. Every invariant the store
// enforces is workspace-local, so one shard lock serializes workspace
// creation and snapshot installs for its workspaces; the workspace table is
// published through an atomic pointer (copied on create) so lookups — like
// every other read — never touch the lock.
type shard struct {
	mu sync.RWMutex // writers only: creates, commits, compactions
	ws atomic.Pointer[wsTable]
}

// DefaultShards is the shard count used when WithShards is not given.
const DefaultShards = 16

// Store is the metadata database.
type Store struct {
	shards []*shard
	mask   uint32
	wal    *WAL
	now    func() time.Time
	closed atomic.Bool

	nshards      int // WithShards hint, resolved in NewStore
	logRetention int // WithLogRetention hint, resolved in NewStore

	// Fault injection (nil in production): transaction aborts, delays and
	// torn WAL writes, rolled per commit.
	fplan *faults.Plan
	fsite string
	fkeys faults.Keyer

	// MVCC bookkeeping, maintained whether or not a registry is attached:
	// installs/compactRuns count snapshot swaps and compactions, logEntries
	// tracks the summed change-log length, lastInstall the newest snapshot's
	// install time (unix nanos; 0 before the first commit).
	installs    atomic.Uint64
	compactRuns atomic.Uint64
	logEntries  atomic.Int64
	lastInstall atomic.Int64

	reg        *obs.Registry
	contention []*obs.Counter // per shard; nil without a registry
	// Read-path and snapshot counters (nil without a registry): ChangesSince
	// outcomes, snapshot installs, compaction runs and dropped entries.
	chTail, chFull, chEmpty, chFallback *obs.Counter
	snapInstalls, compactions           *obs.Counter
	compactedEntries                    *obs.Counter
}

// inc bumps a read-path counter when a registry is attached. Counters are
// plain atomics, so this keeps the lock-free read path lock-free.
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

// WithShards sets how many shards the workspace map splits into, rounded up
// to a power of two (minimum 1). One shard serializes all writers — the
// pre-sharding behavior, useful as a reference model and baseline.
func WithShards(n int) Option {
	return func(s *Store) { s.nshards = n }
}

// WithRegistry wires the store (and its WAL, if any) into a metrics
// registry: per-shard contention counters and group-commit flush metrics.
func WithRegistry(reg *obs.Registry) Option {
	return func(s *Store) { s.reg = reg }
}

// WithFaults wires deterministic fault injection into the transaction path:
// a commit may be rolled back with ErrTxAborted (transient — the caller's
// retry/redelivery layer must re-submit), may stall before taking the shard
// lock, or may tear the next WAL record as if the process crashed mid-append.
func WithFaults(plan *faults.Plan, site string) Option {
	return func(s *Store) { s.fplan, s.fsite = plan, site }
}

// injectTx rolls one transaction-level fault. It runs before the shard lock
// is taken, so an injected delay stalls only this commit — readers and
// commits to other workspaces proceed.
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
	s := &Store{
		now:          time.Now,
		nshards:      DefaultShards,
		logRetention: DefaultLogRetention,
	}
	for _, opt := range opts {
		opt(s)
	}
	if s.logRetention < 2 {
		s.logRetention = 2
	}
	n := 1
	for n < s.nshards {
		n <<= 1
	}
	s.shards = make([]*shard, n)
	for i := range s.shards {
		sh := &shard{}
		t := make(wsTable)
		sh.ws.Store(&t)
		s.shards[i] = sh
	}
	s.mask = uint32(n - 1)
	if s.reg != nil {
		s.contention = make([]*obs.Counter, n)
		for i := range s.contention {
			s.contention[i] = s.reg.Counter("metastore_shard_contention_total", "shard", strconv.Itoa(i))
		}
		s.reg.GaugeFunc("metastore_shards", func() float64 { return float64(n) })
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

// SnapshotInstalls reports how many snapshot pointer swaps have been
// performed since the store opened (one per committing CommitVersion /
// per-workspace CommitBatch group).
func (s *Store) SnapshotInstalls() uint64 { return s.installs.Load() }

// Compactions reports how many change-log compactions have run.
func (s *Store) Compactions() uint64 { return s.compactRuns.Load() }

// lookupWS resolves a workspace without taking any lock.
func (s *Store) lookupWS(workspace string) (*wsState, bool) {
	sh := s.shards[s.shardIdx(workspace)]
	w, ok := (*sh.ws.Load())[workspace]
	return w, ok
}

// Shards reports the resolved shard count.
func (s *Store) Shards() int { return len(s.shards) }

// shardIdx maps a workspace ID to its shard (FNV-1a, masked).
func (s *Store) shardIdx(workspace string) int {
	h := uint32(2166136261)
	for i := 0; i < len(workspace); i++ {
		h ^= uint32(workspace[i])
		h *= 16777619
	}
	return int(h & s.mask)
}

// lockShard write-locks shard idx, counting the acquisition as contended
// when another writer already holds it.
func (s *Store) lockShard(idx int) *shard {
	sh := s.shards[idx]
	if sh.mu.TryLock() {
		return sh
	}
	if s.contention != nil {
		s.contention[idx].Inc()
	}
	sh.mu.Lock()
	return sh
}

// CreateWorkspace registers a workspace.
func (s *Store) CreateWorkspace(ws Workspace) error {
	if s.closed.Load() {
		return ErrClosed
	}
	sh := s.lockShard(s.shardIdx(ws.ID))
	if s.closed.Load() {
		sh.mu.Unlock()
		return ErrClosed
	}
	old := sh.ws.Load()
	if _, ok := (*old)[ws.ID]; ok {
		sh.mu.Unlock()
		return fmt.Errorf("metastore: create %q: %w", ws.ID, ErrWorkspaceExists)
	}
	// Copy-on-create: the table is read lock-free, so publish a new one.
	next := make(wsTable, len(*old)+1)
	for id, w := range *old {
		next[id] = w
	}
	st := &wsState{meta: ws}
	st.snap.Store(emptySnapshot())
	next[ws.ID] = st
	sh.ws.Store(&next)
	off, err := s.wal.append(walWorkspace, &ws)
	sh.mu.Unlock()
	if err != nil {
		return err
	}
	return s.wal.wait(off)
}

// WorkspacesFor lists the workspaces a user owns or is a member of —
// the getWorkspaces operation's backing query. Lock-free: it walks each
// shard's published workspace table.
func (s *Store) WorkspacesFor(user string) []Workspace {
	var out []Workspace
	for _, sh := range s.shards {
		for _, w := range *sh.ws.Load() {
			ws := w.meta
			if ws.Owner == user {
				out = append(out, ws)
				continue
			}
			for _, m := range ws.Members {
				if m == user {
					out = append(out, ws)
					break
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
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
	w, ok := s.lookupWS(workspace)
	if !ok {
		return ItemVersion{}, false, fmt.Errorf("metastore: %q: %w", workspace, ErrNoWorkspace)
	}
	chain, ok := w.snap.Load().items[itemID]
	if !ok {
		return ItemVersion{}, false, nil
	}
	return chain.current(), true, nil
}

// CommitVersion atomically applies the version-precedence check of
// Algorithm 1 and stores the proposed version:
//
//   - item unknown  and proposed Version == 1  → committed (store_new_object)
//   - current+1 == proposed Version            → committed (store_new_version)
//   - anything else                            → ErrVersionConflict carrying
//     the authoritative current version, which the service piggybacks on the
//     CommitNotification so the losing client can reconstruct the file.
//
// The WAL record is appended while the shard lock is held (preserving
// per-workspace append order) but awaited after release, so concurrent
// committers share one group-commit flush.
func (s *Store) CommitVersion(v ItemVersion) (ItemVersion, error) {
	if s.closed.Load() {
		return ItemVersion{}, ErrClosed
	}
	if err := s.injectTx(); err != nil {
		return ItemVersion{}, err
	}
	sh := s.lockShard(s.shardIdx(v.Workspace))
	if s.closed.Load() {
		sh.mu.Unlock()
		return ItemVersion{}, ErrClosed
	}
	wr, err := sh.writeTo(s, v.Workspace)
	if err != nil {
		sh.mu.Unlock()
		return ItemVersion{}, err
	}
	committed, err := wr.commit(v, s.now)
	if err != nil {
		sh.mu.Unlock()
		return committed, err
	}
	off, err := s.wal.append(walVersion, &committed)
	wr.install()
	sh.mu.Unlock()
	if err == nil {
		err = s.wal.wait(off)
	}
	return committed, err
}

// BatchResult is one element of a CommitBatch outcome. Each proposal
// succeeds or conflicts independently (Algorithm 1 loops per object); the
// returned slice is parallel to the input, and conflicted entries carry the
// authoritative current version.
type BatchResult struct {
	Committed bool        `json:"committed"`
	Version   ItemVersion `json:"version"` // committed version, or current on conflict
}

// CommitBatch applies a list of proposed versions. Proposals are grouped by
// workspace; each group commits atomically with respect to other writers of
// that workspace (the paper's per-workspace transaction), and groups for
// distinct workspaces may interleave with concurrent committers. All of a
// group's WAL records join one group-commit flush.
func (s *Store) CommitBatch(proposals []ItemVersion) ([]BatchResult, error) {
	if s.closed.Load() {
		return nil, ErrClosed
	}
	if err := s.injectTx(); err != nil {
		return nil, err
	}
	// Group indices by workspace, preserving both first-appearance order of
	// workspaces and in-workspace proposal order.
	type wsGroup struct {
		ws   string
		idxs []int
	}
	byWS := make(map[string]*wsGroup)
	var order []*wsGroup
	for i, p := range proposals {
		g, ok := byWS[p.Workspace]
		if !ok {
			g = &wsGroup{ws: p.Workspace}
			byWS[p.Workspace] = g
			order = append(order, g)
		}
		g.idxs = append(g.idxs, i)
	}

	results := make([]BatchResult, len(proposals))
	var last int64   // the WAL offset to wait on
	var walErr error // the first append that failed
	for _, g := range order {
		sh := s.lockShard(s.shardIdx(g.ws))
		if s.closed.Load() {
			sh.mu.Unlock()
			return nil, ErrClosed
		}
		wr, werr := sh.writeTo(s, g.ws)
		if werr != nil {
			sh.mu.Unlock()
			return nil, werr
		}
		abort := error(nil)
		for _, i := range g.idxs {
			committed, err := wr.commit(proposals[i], s.now)
			if err != nil {
				if errors.Is(err, ErrVersionConflict) {
					results[i] = BatchResult{Committed: false, Version: committed}
					continue
				}
				abort = err
				break
			}
			results[i] = BatchResult{Committed: true, Version: committed}
			off, err := s.wal.append(walVersion, &committed)
			if err != nil && walErr == nil {
				walErr = err
			}
			last = max(last, off)
		}
		// One pointer swap publishes the whole group (even on a mid-group
		// abort, what committed before the abort stays committed — matching
		// the WAL records already appended above).
		wr.install()
		sh.mu.Unlock()
		if abort != nil {
			return nil, abort
		}
	}
	if walErr == nil {
		walErr = s.wal.wait(last)
	}
	if walErr != nil {
		return nil, walErr
	}
	return results, nil
}

// History returns the full version chain of an item, oldest first.
// Lock-free snapshot read: the chain structs are immutable, so the copy is
// taken from a stable view.
func (s *Store) History(workspace, itemID string) ([]ItemVersion, error) {
	w, ok := s.lookupWS(workspace)
	if !ok {
		return nil, fmt.Errorf("metastore: %q: %w", workspace, ErrNoWorkspace)
	}
	chain, ok := w.snap.Load().items[itemID]
	if !ok {
		return nil, fmt.Errorf("metastore: %s/%s: %w", workspace, itemID, ErrNoItem)
	}
	out := make([]ItemVersion, len(chain.versions))
	copy(out, chain.versions)
	return out, nil
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

// StateAt returns the live state together with the workspace version it is
// consistent at — what a client records as its resync cursor.
func (s *Store) StateAt(workspace string) ([]ItemVersion, uint64, error) {
	sn, err := s.snapshotOf(workspace)
	if err != nil {
		return nil, 0, err
	}
	return sn.live(), sn.version, nil
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

// ItemCount reports the number of live (non-deleted) items in a workspace.
func (s *Store) ItemCount(workspace string) (int, error) {
	state, err := s.State(workspace)
	if err != nil {
		return 0, err
	}
	return len(state), nil
}

// Close syncs the WAL and rejects further writes. It drains in-flight
// writers (each shard lock is acquired once) before closing the journal.
func (s *Store) Close() error {
	if !s.closed.CompareAndSwap(false, true) {
		return nil
	}
	for _, sh := range s.shards {
		sh.mu.Lock()
		// Empty critical section on purpose: entering the lock waits out any
		// writer that passed the closed check before the flag flipped.
		sh.mu.Unlock()
	}
	return s.wal.Close()
}

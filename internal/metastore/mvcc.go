package metastore

// MVCC read path (DESIGN §16). Every workspace keeps an immutable snapshot —
// a copy-on-write item table holding each item's current version, plus an
// append-only change log — published through one atomic pointer. The
// workspace's one writer builds the next snapshot under the workspace's
// lock and installs it with a single pointer swap, so a CommitBatch becomes
// visible all-or-nothing; readers (State, Current, ChangesSince) load the
// pointer and walk structures that will never mutate beneath them, taking
// no workspace lock. ChangesSince then waits on the WAL, which takes the
// record log writer's mutex (see ChangesSince). A reconnecting client
// replays the log tail ("changes since v") instead of re-scanning the
// workspace; once the requested version has been compacted away, the reply
// falls back to the full live state and says so.
//
// Immutability fine print: successive snapshots share the log's backing
// array. A writer appends the next entry at index len(log) of the newest
// snapshot's log; every published snapshot's slice header bounds readers to
// [0, len), so the append touches memory no reader of an older snapshot can
// reach, and the atomic pointer store publishing the new snapshot is the
// happens-before edge that makes the appended element visible to its
// readers. Compaction copies the retained tail into a fresh array, after
// which the old one is never extended again.

import (
	"maps"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
)

// DefaultLogRetention is the per-workspace change-log bound used when
// WithLogRetention is not given: once the log exceeds it, the oldest half is
// compacted away and the watermark advances.
const DefaultLogRetention = 4096

// WithLogRetention bounds the per-workspace change log to at most n entries
// (minimum 2): exceeding the bound compacts the log down to n/2, advancing
// the watermark. Clients whose resync version predates the watermark fall
// back to a full-state reply.
func WithLogRetention(n int) Option {
	return func(s *Store) { s.logRetention = n }
}

// snapshot is one immutable read view of a workspace. version counts every
// committed ItemVersion since workspace creation; items maps each ItemID to
// its current version, held by pointer so the per-commit table copy copies
// pointers; log holds the entries (logStart, version] in commit order, so
// entry i carries workspace version logStart+1+i. Versions at or below
// logStart have been compacted away.
type snapshot struct {
	version  uint64
	logStart uint64
	items    map[string]*ItemVersion
	log      []ItemVersion
}

// emptySnapshot is the version-0 view every workspace starts from.
func emptySnapshot() *snapshot {
	return &snapshot{items: make(map[string]*ItemVersion)}
}

// live returns the current version of every non-deleted item, sorted by
// ItemID — the full-state reply.
func (sn *snapshot) live() []ItemVersion {
	var out []ItemVersion
	for _, cur := range sn.items {
		if cur.Status != Deleted {
			out = append(out, *cur)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ItemID < out[j].ItemID })
	return out
}

// wsState is one workspace: its immutable registration record, the
// atomically published snapshot pointer and the mutex of its one writer,
// which guards the snapshot's replacement. meta never changes after
// creation, so reads need no lock anywhere in this struct.
type wsState struct {
	meta Workspace
	mu   sync.Mutex // the writer: commits, WAL replay, compactions
	snap atomic.Pointer[snapshot]
}

// wsTable maps workspace ID to state. The table itself is published through
// the store's atomic pointer and copied on workspace creation, so lookups
// are lock-free too.
type wsTable map[string]*wsState

// Changes is a ChangesSince reply: the committed entries after Since, or —
// when Since predates the compaction watermark (or the workspace has no log
// covering it) — the full live state with Full set.
type Changes struct {
	Workspace string `json:"workspace"`
	// Since echoes the requested version.
	Since uint64 `json:"since"`
	// Version is the workspace version this reply is consistent at: a
	// prefix-consistent committed snapshot, never a torn batch.
	Version uint64 `json:"version"`
	// Full reports that Items is the complete live state (sorted by ItemID)
	// rather than a log tail: the requested version was compacted away, lies
	// in the future of this replica, or the caller asked from zero.
	Full bool `json:"full,omitempty"`
	// Items is the log tail in commit order (including tombstones) when Full
	// is false, or the live state when Full is true.
	Items []ItemVersion `json:"items,omitempty"`
}

// ChangesSince returns everything committed to the workspace after version
// since, read from one snapshot without the workspace's lock, once the WAL
// holds it. The wait takes the WAL writer's mutex (and may run a sync): a
// writer publishes its snapshot before its records are synced, and a crash
// must not take back what a reader was shown. since == 0 always yields a
// full state reply (a cold client wants the live items, not the whole
// history); a since below the compaction watermark falls back to full state
// with Full set; a since at or above the snapshot version returns an empty
// tail at the snapshot's version.
func (s *Store) ChangesSince(workspace string, since uint64) (Changes, error) {
	sn, err := s.snapshotOf(workspace)
	if err != nil {
		return Changes{}, err
	}
	if err := s.wal.wait(s.wal.end()); err != nil {
		return Changes{}, err
	}
	c := Changes{Workspace: workspace, Since: since, Version: sn.version}
	switch {
	case since >= sn.version && since > 0:
		// Nothing new. A since from the future cannot come from this
		// store's own replies, but a client that synced against another
		// deployment can send one; it degrades to the full state so the
		// caller can converge.
		if since > sn.version {
			c.Full = true
			c.Items = sn.live()
			s.inc(s.chFull)
			return c, nil
		}
		s.inc(s.chEmpty)
		return c, nil
	case since >= sn.logStart && since > 0:
		tail := sn.log[since-sn.logStart:]
		c.Items = make([]ItemVersion, len(tail))
		copy(c.Items, tail)
		s.inc(s.chTail)
		return c, nil
	default:
		// Cold start (since == 0) or compacted away: full live state.
		c.Full = true
		c.Items = sn.live()
		if since > 0 {
			s.inc(s.chFallback)
		}
		s.inc(s.chFull)
		return c, nil
	}
}

// CompactLog force-compacts the workspace's change log down to at most keep
// entries (keep < 0 is treated as 0) and returns the new watermark. The
// automatic retention policy does the same on the commit path; this exported
// form is for the tests and harnesses that race compaction against readers.
func (s *Store) CompactLog(workspace string, keep int) (uint64, error) {
	var mark uint64
	err := s.write(workspace, func(wr *wsWrite) error {
		wr.compact(max(keep, 0))
		mark = wr.logStart
		return nil
	})
	return mark, err
}

// wsWrite builds one workspace's next snapshot under the workspace's lock:
// the write side of MVCC. commit applies Algorithm 1's precedence check
// against the working state (so later proposals of a batch see earlier
// winners), compact trims the working log, and install publishes the
// result with one pointer swap — or swaps nothing when nothing changed.
type wsWrite struct {
	st       *Store
	w        *wsState
	base     *snapshot
	items    map[string]*ItemVersion // base.items until the first commit copies it
	log      []ItemVersion
	version  uint64
	logStart uint64
}

// outcome is what commit did with one proposal.
type outcome int

const (
	conflict outcome = iota // lost the precedence check; nothing changed
	replayed                // committed before: re-acknowledged, nothing changed
	fresh                   // committed now, into the working state
)

// commit applies the precedence check to one proposal and returns the
// version that answers it — the committed one, or on a conflict the
// authoritative current version (zero for an unknown item):
//
//   - item unknown  and proposed Version == 1  → fresh (store_new_object)
//   - current+1 == proposed Version            → fresh (store_new_version)
//   - an earlier version proposed again        → replayed (see below)
//   - anything else                            → conflict
func (wr *wsWrite) commit(v ItemVersion) (ItemVersion, outcome) {
	if v.CommittedAt.IsZero() {
		v.CommittedAt = wr.st.now()
	}
	cur := wr.items[v.ItemID]
	if cur == nil {
		if v.Version != 1 {
			return ItemVersion{}, conflict
		}
	} else if v.Version != cur.Version+1 {
		// Replay detection: an at-least-once transport (MQ redelivery after
		// an instance crash, proxy retry, client retransmission) can re-submit
		// a proposal that already committed. Re-acknowledging it keeps the
		// duplicate from surfacing as a spurious conflict.
		if prior, ok := wr.priorOf(v, cur); ok {
			return prior, replayed
		}
		return *cur, conflict
	}
	wr.append(v)
	return v, fresh
}

// priorOf returns the committed version that v proposes again: cur, or an
// earlier version of v's item, found in the working log newest-first. Only
// a proposal carrying its writer's DeviceID can be identified as a replay;
// anonymous proposals keep strict first-committer-wins conflicts, and so
// does a replay of a version the log no longer reaches (DESIGN §16).
func (wr *wsWrite) priorOf(v ItemVersion, cur *ItemVersion) (ItemVersion, bool) {
	if v.DeviceID == "" {
		return ItemVersion{}, false
	}
	prior := *cur
	for i := len(wr.log) - 1; i >= 0 && prior.Version > v.Version; i-- {
		if e := &wr.log[i]; e.ItemID == v.ItemID && e.Version <= v.Version {
			prior = *e
		}
	}
	return prior, prior.Version == v.Version && prior.DeviceID == v.DeviceID &&
		prior.Checksum == v.Checksum && prior.Status == v.Status && prior.Path == v.Path &&
		slices.Equal(prior.Chunks, v.Chunks)
}

// append records one committed version in the working state.
func (wr *wsWrite) append(v ItemVersion) {
	if wr.version == wr.base.version { // the first commit copies the base table
		wr.items = maps.Clone(wr.base.items)
	}
	wr.items[v.ItemID] = &v
	wr.log = append(wr.log, v)
	wr.version++
}

// compact trims the working log to its newest keep entries, advancing the
// watermark past the dropped ones.
func (wr *wsWrite) compact(keep int) {
	dropped := len(wr.log) - keep
	if dropped <= 0 {
		return
	}
	wr.log = append([]ItemVersion(nil), wr.log[dropped:]...)
	wr.logStart = wr.version - uint64(keep)
	if wr.st.compactions != nil {
		wr.st.compactions.Inc()
		wr.st.compactedEntries.Add(uint64(dropped))
	}
}

// install publishes the working state as the workspace's next snapshot —
// the one pointer swap of every write — after applying the retention
// policy to a commit. Caller still holds the workspace's lock. A write that
// changed nothing installs nothing, and only a commit counts as a snapshot
// install.
func (wr *wsWrite) install() {
	st := wr.st
	if wr.version != wr.base.version {
		if len(wr.log) > st.logRetention {
			wr.compact(st.logRetention / 2)
		}
		st.lastInstall.Store(st.now().UnixNano())
		st.inc(st.snapInstalls)
	} else if wr.logStart == wr.base.logStart {
		return
	}
	st.logEntries.Add(int64(len(wr.log)) - int64(len(wr.base.log)))
	wr.w.snap.Store(&snapshot{version: wr.version, logStart: wr.logStart, items: wr.items, log: wr.log})
}

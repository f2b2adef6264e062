package obs

import (
	"sort"
	"sync"
)

// TopK is a space-saving heavy-hitter sketch (Metwally et al.): it tracks at
// most k keys with approximate counts. When a new key arrives and the sketch
// is full, the minimum-count entry is evicted and the newcomer inherits its
// count; the inherited amount is remembered as the entry's error bound, so
// every reported Count overestimates the true count by at most Err. With
// Zipf-skewed workloads (the workload the scenario matrix models) the true
// heavy hitters are guaranteed to be present once their count exceeds the
// eviction floor.
//
// All methods are safe for concurrent use; a nil *TopK is inert.
type TopK struct {
	mu      sync.Mutex
	k       int
	entries map[string]*topkEntry
	total   uint64
}

type topkEntry struct {
	count uint64
	err   uint64
}

// TopKEntry is one reported heavy hitter. The true count is in
// [Count-Err, Count].
type TopKEntry struct {
	Key   string `json:"key"`
	Count uint64 `json:"count"`
	Err   uint64 `json:"err,omitempty"`
}

// NewTopK returns a sketch tracking at most k keys (default 8).
func NewTopK(k int) *TopK {
	if k <= 0 {
		k = 8
	}
	return &TopK{k: k, entries: make(map[string]*topkEntry, k)}
}

// Observe adds delta to key's count, evicting the minimum entry when the
// sketch is full and key is new.
func (t *TopK) Observe(key string, delta uint64) {
	if t == nil || delta == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.total += delta
	if e, ok := t.entries[key]; ok {
		e.count += delta
		return
	}
	if len(t.entries) < t.k {
		t.entries[key] = &topkEntry{count: delta}
		return
	}
	// Evict the minimum-count entry (ties broken by key for determinism);
	// the newcomer inherits its count as the error bound.
	var minKey string
	var min *topkEntry
	for k2, e := range t.entries {
		if min == nil || e.count < min.count || (e.count == min.count && k2 < minKey) {
			minKey, min = k2, e
		}
	}
	delete(t.entries, minKey)
	t.entries[key] = &topkEntry{count: min.count + delta, err: min.count}
}

// Total returns the sum of all observed deltas (exact, not sketched).
func (t *TopK) Total() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.total
}

// Snapshot returns the tracked entries, highest count first (ties by key).
func (t *TopK) Snapshot() []TopKEntry {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	out := make([]TopKEntry, 0, len(t.entries))
	for k, e := range t.entries {
		out = append(out, TopKEntry{Key: k, Count: e.count, Err: e.err})
	}
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Key < out[j].Key
	})
	return out
}

// HotStats bundles the per-workspace heavy-hitter sketches of a deployment:
// commit counts, notification fan-out, and transferred bytes. Every
// SyncService instance of a process feeds the one HotStats, so its top-K is
// exact up to each entry's Err. A nil *HotStats is inert, so the service
// pays one nil check when attribution is off.
type HotStats struct {
	Commits      *TopK
	NotifyFanout *TopK
	Transfer     *TopK
}

// NewHotStats returns sketches of width k for each dimension.
func NewHotStats(k int) *HotStats {
	return &HotStats{Commits: NewTopK(k), NotifyFanout: NewTopK(k), Transfer: NewTopK(k)}
}

// ObserveCommit records one commit against workspace, with the notification
// fan-out it caused and the payload bytes it carried.
func (h *HotStats) ObserveCommit(workspace string, fanout, bytes uint64) {
	if h == nil {
		return
	}
	h.Commits.Observe(workspace, 1)
	h.NotifyFanout.Observe(workspace, fanout)
	h.Transfer.Observe(workspace, bytes)
}

// HotSnapshot is the exported view of a HotStats.
type HotSnapshot struct {
	Commits      []TopKEntry `json:"commits,omitempty"`
	NotifyFanout []TopKEntry `json:"notifyFanout,omitempty"`
	Transfer     []TopKEntry `json:"transferBytes,omitempty"`
}

// Snapshot captures all three dimensions.
func (h *HotStats) Snapshot() HotSnapshot {
	if h == nil {
		return HotSnapshot{}
	}
	return HotSnapshot{
		Commits:      h.Commits.Snapshot(),
		NotifyFanout: h.NotifyFanout.Snapshot(),
		Transfer:     h.Transfer.Snapshot(),
	}
}

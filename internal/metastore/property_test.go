package metastore

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	"stacksync/internal/obs"
)

// foldLive is the live state a change log folds to: each item's last
// version unless it is a tombstone, sorted by ItemID.
func foldLive(log []ItemVersion) []ItemVersion {
	last := make(map[string]ItemVersion)
	for _, v := range log {
		last[v.ItemID] = v
	}
	var out []ItemVersion
	for _, v := range last {
		if v.Status != Deleted {
			out = append(out, v)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ItemID < out[j].ItemID })
	return out
}

// TestVersionChainInvariants drives random commit attempts and checks the
// store's core invariants after every operation: an item's versions are
// strictly sequential, the current version is its last, exactly one
// proposal wins each version slot, and the change log holds every
// acknowledged version in order.
func TestVersionChainInvariants(t *testing.T) {
	const (
		seeds = 10
		items = 5
		steps = 400
	)
	for seed := int64(1); seed <= seeds; seed++ {
		r := rand.New(rand.NewSource(seed))
		s := NewStore()
		if err := s.CreateWorkspace(Workspace{ID: "ws", Owner: "u"}); err != nil {
			t.Fatal(err)
		}
		// Reference model: current version per item, and its acknowledged
		// versions.
		model := make(map[string]uint64, items)
		acked := make(map[string][]ItemVersion, items)

		for step := 0; step < steps; step++ {
			itemID := string(rune('a' + r.Intn(items)))
			// Propose a version that is correct (model+1) half the time and
			// arbitrary otherwise.
			var proposed uint64
			if r.Intn(2) == 0 {
				proposed = model[itemID] + 1
			} else {
				proposed = uint64(r.Intn(8))
			}
			status := Modified
			if proposed == 1 {
				status = Added
			}
			committed, err := s.CommitVersion(ItemVersion{
				Workspace: "ws", ItemID: itemID, Path: "/" + itemID,
				Version: proposed, Status: status,
			})
			wantOK := proposed == model[itemID]+1
			if wantOK && err != nil {
				t.Fatalf("seed %d step %d: valid commit v%d over v%d rejected: %v",
					seed, step, proposed, model[itemID], err)
			}
			if !wantOK && err == nil {
				t.Fatalf("seed %d step %d: invalid commit v%d over v%d accepted",
					seed, step, proposed, model[itemID])
			}
			if err == nil {
				model[itemID] = proposed
				acked[itemID] = append(acked[itemID], committed)
			}
			// Invariants against the model.
			cur, ok, err := s.Current("ws", itemID)
			if err != nil {
				t.Fatal(err)
			}
			if model[itemID] == 0 {
				if ok {
					t.Fatalf("seed %d: phantom item %s", seed, itemID)
				}
				continue
			}
			if !ok || cur.Version != model[itemID] {
				t.Fatalf("seed %d: current(%s) = v%d ok=%v, model v%d",
					seed, itemID, cur.Version, ok, model[itemID])
			}
			if got := logged(t, s, "ws", itemID); !reflect.DeepEqual(got, acked[itemID]) {
				t.Fatalf("seed %d: change log of %s holds %+v, acknowledged %+v", seed, itemID, got, acked[itemID])
			}
		}
	}
}

// TestStateMatchesChains cross-checks State against per-item Current for
// random workloads including deletions.
func TestStateMatchesChains(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	s := NewStore()
	if err := s.CreateWorkspace(Workspace{ID: "ws", Owner: "u"}); err != nil {
		t.Fatal(err)
	}
	versions := map[string]uint64{}
	live := map[string]bool{}
	for step := 0; step < 300; step++ {
		itemID := string(rune('a' + r.Intn(8)))
		next := versions[itemID] + 1
		status := Modified
		if next == 1 {
			status = Added
		}
		if live[itemID] && r.Intn(4) == 0 {
			status = Deleted
		}
		if _, err := s.CommitVersion(ItemVersion{
			Workspace: "ws", ItemID: itemID, Path: "/" + itemID,
			Version: next, Status: status,
		}); err != nil {
			t.Fatal(err)
		}
		versions[itemID] = next
		live[itemID] = status != Deleted
	}
	state, err := s.State("ws")
	if err != nil {
		t.Fatal(err)
	}
	wantLive := 0
	for _, ok := range live {
		if ok {
			wantLive++
		}
	}
	if len(state) != wantLive {
		t.Fatalf("state has %d items, model says %d", len(state), wantLive)
	}
	for _, v := range state {
		if !live[v.ItemID] {
			t.Fatalf("deleted item %s in state", v.ItemID)
		}
		if v.Version != versions[v.ItemID] {
			t.Fatalf("state %s at v%d, model v%d", v.ItemID, v.Version, versions[v.ItemID])
		}
	}
}

// --- Linearizability-style model checking of the store ---
//
// The store serializes writers per workspace, so for a workload whose
// per-workspace op sequence is fixed, running the workspaces concurrently
// against one store must be indistinguishable — per-op outcomes, final
// state, change logs — from replaying the same sequences one workspace at a
// time against a second store, the reference model; and each store's log
// must hold exactly the versions its commits acknowledged, folding to its
// final state. Schedules are generated
// from a seeded math/rand, and every failure message carries the seed, so a
// failing interleaving replays deterministically.

const (
	opCommit = iota
	opBatch
	opCurrent
)

// propOp is one scheduled operation against one workspace.
type propOp struct {
	kind   int
	items  []ItemVersion // proposals for opCommit (1 item) / opBatch
	ws     string
	itemID string // for opCurrent
}

// genSchedules builds a deterministic per-workspace op schedule. Proposals
// track a local next-version counter so roughly half are valid (+1) and the
// rest conflict, exercising both paths of Algorithm 1.
func genSchedules(seed int64, workspaces, ops, items int) [][]propOp {
	r := rand.New(rand.NewSource(seed))
	scheds := make([][]propOp, workspaces)
	for w := range scheds {
		ws := fmt.Sprintf("ws-%d", w)
		next := make(map[string]uint64, items)
		propose := func() ItemVersion {
			itemID := string(rune('a' + r.Intn(items)))
			var v uint64
			if r.Intn(2) == 0 {
				v = next[itemID] + 1
			} else {
				v = uint64(r.Intn(6))
			}
			status := Modified
			if v == 1 {
				status = Added
			} else if r.Intn(16) == 0 {
				status = Deleted
			}
			if v == next[itemID]+1 {
				next[itemID] = v
			}
			return ItemVersion{
				Workspace: ws, ItemID: itemID, Path: "/" + itemID,
				Version: v, Status: status, Size: int64(r.Intn(1000)),
				Checksum: fmt.Sprintf("c%d", r.Intn(4)),
			}
		}
		sched := make([]propOp, ops)
		for i := range sched {
			switch k := r.Intn(10); {
			case k < 5:
				sched[i] = propOp{kind: opCommit, ws: ws, items: []ItemVersion{propose()}}
			case k < 8:
				batch := make([]ItemVersion, 1+r.Intn(4))
				for j := range batch {
					batch[j] = propose()
				}
				sched[i] = propOp{kind: opBatch, ws: ws, items: batch}
			default:
				sched[i] = propOp{kind: opCurrent, ws: ws, itemID: string(rune('a' + r.Intn(items)))}
			}
		}
		scheds[w] = sched
	}
	return scheds
}

// runSchedule executes one workspace's schedule and renders every outcome —
// returned versions, batch results, read results, errors — to a canonical
// string for exact comparison against the reference model. acked lists the
// versions its commits acknowledged, in order.
func runSchedule(s *Store, sched []propOp) (out []string, acked []ItemVersion) {
	out = make([]string, len(sched))
	for i, op := range sched {
		switch op.kind {
		case opCommit:
			v, err := s.CommitVersion(op.items[0])
			out[i] = fmt.Sprintf("commit %s v%d err=%v", v.ItemID, v.Version, err)
			if err == nil {
				acked = append(acked, v)
			}
		case opBatch:
			res, err := s.CommitBatch(op.items)
			line := fmt.Sprintf("batch err=%v", err)
			for _, r := range res {
				line += fmt.Sprintf(" [%v %s v%d]", r.Committed, r.Version.ItemID, r.Version.Version)
				if r.Committed {
					acked = append(acked, r.Version)
				}
			}
			out[i] = line
		case opCurrent:
			v, ok, err := s.Current(op.ws, op.itemID)
			out[i] = fmt.Sprintf("current %s ok=%v v%d err=%v", op.itemID, ok, v.Version, err)
		}
	}
	return out, acked
}

// TestConcurrentStoreMatchesSerialReference is the model-checking harness:
// per-workspace schedules run concurrently against one store must produce
// exactly the outcomes of the same schedules run sequentially against a
// reference store.
func TestConcurrentStoreMatchesSerialReference(t *testing.T) {
	const (
		seeds      = 6
		workspaces = 8
		opsPerWS   = 150
		items      = 4
	)
	for seed := int64(1); seed <= seeds; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			scheds := genSchedules(seed, workspaces, opsPerWS, items)
			// Both stores use a fixed clock so committed timestamps compare
			// exactly (CommittedAt is assigned inside the store).
			fixed := time.Unix(1700000000, 0).UTC()
			now := func() time.Time { return fixed }
			concurrent := NewStore(WithNow(now))
			serial := NewStore(WithNow(now))
			for w := 0; w < workspaces; w++ {
				ws := fmt.Sprintf("ws-%d", w)
				for _, s := range []*Store{concurrent, serial} {
					if err := s.CreateWorkspace(Workspace{ID: ws, Owner: "u"}); err != nil {
						t.Fatal(err)
					}
				}
			}

			got := make([][]string, workspaces)
			acked := make([][]ItemVersion, workspaces)
			var wg sync.WaitGroup
			for w := range scheds {
				w := w
				wg.Add(1)
				go func() {
					defer wg.Done()
					got[w], acked[w] = runSchedule(concurrent, scheds[w])
				}()
			}
			wg.Wait()

			for w := range scheds {
				want, _ := runSchedule(serial, scheds[w])
				for i := range want {
					if got[w][i] != want[i] {
						t.Fatalf("seed %d: ws-%d op %d diverges from reference model\n  concurrent: %s\n  serial:     %s\n(re-run with seed %d for a deterministic replay)",
							seed, w, i, got[w][i], want[i], seed)
					}
				}
			}
			for w := 0; w < workspaces; w++ {
				ws := fmt.Sprintf("ws-%d", w)
				a, errA := concurrent.State(ws)
				b, errB := serial.State(ws)
				if errA != nil || errB != nil {
					t.Fatalf("state: %v / %v", errA, errB)
				}
				if !reflect.DeepEqual(a, b) {
					t.Fatalf("seed %d: final state of %s diverges\n  concurrent: %+v\n  serial:     %+v", seed, ws, a, b)
				}
				la, lb := snap(t, concurrent, ws), snap(t, serial, ws)
				if la.logStart != 0 || !reflect.DeepEqual(la.log, acked[w]) {
					t.Fatalf("seed %d: change log of %s from v%d does not hold the acknowledged commits\n  log:   %+v\n  acked: %+v",
						seed, ws, la.logStart, la.log, acked[w])
				}
				if !reflect.DeepEqual(la.log, lb.log) {
					t.Fatalf("seed %d: change log of %s diverges from the reference model", seed, ws)
				}
				if !reflect.DeepEqual(a, foldLive(acked[w])) {
					t.Fatalf("seed %d: final state of %s is not the fold of its acknowledged commits", seed, ws)
				}
			}
		})
	}
}

// TestConcurrentSameWorkspaceInvariants races writers into ONE workspace —
// the workspace's lock, not goroutine luck, must uphold first-committer-wins —
// while readers hammer the snapshot paths. Afterwards every item's logged
// versions must be strictly sequential, each the one acknowledged winner of
// its version slot.
func TestConcurrentSameWorkspaceInvariants(t *testing.T) {
	const (
		writers  = 8
		attempts = 200
		items    = 4
	)
	s := NewStore()
	if err := s.CreateWorkspace(Workspace{ID: "ws", Owner: "u"}); err != nil {
		t.Fatal(err)
	}
	var wg, rwg sync.WaitGroup
	stop := make(chan struct{})
	// Readers: exercise Current/State/ChangesSince concurrently with the writers;
	// under -race this doubles as a data-race probe on the read paths.
	for g := 0; g < 2; g++ {
		rwg.Add(1)
		go func() {
			defer rwg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				_, _, _ = s.Current("ws", "a")
				_, _ = s.State("ws")
				_, _ = s.ChangesSince("ws", 1)
			}
		}()
	}
	var acked [items]map[uint64]string // per item, the winner's checksum by version
	var cmu sync.Mutex
	for g := 0; g < writers; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < attempts; i++ {
				it := r.Intn(items)
				itemID := string(rune('a' + it))
				cur, ok, err := s.Current("ws", itemID)
				if err != nil {
					t.Errorf("current: %v", err)
					return
				}
				next := uint64(1)
				if ok {
					next = cur.Version + 1
				}
				status := Modified
				if next == 1 {
					status = Added
				}
				_, err = s.CommitVersion(ItemVersion{
					Workspace: "ws", ItemID: itemID, Path: "/" + itemID,
					Version: next, Status: status, Checksum: fmt.Sprintf("w%d-%d", g, i),
				})
				if err == nil {
					cmu.Lock()
					if acked[it] == nil {
						acked[it] = make(map[uint64]string)
					}
					acked[it][next] = fmt.Sprintf("w%d-%d", g, i)
					cmu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	rwg.Wait()
	for it := 0; it < items; it++ {
		itemID := string(rune('a' + it))
		got := logged(t, s, "ws", itemID)
		for i, v := range got {
			if v.Version != uint64(i+1) || v.Checksum != acked[it][v.Version] {
				t.Fatalf("%s log[%d] = v%d (%s): not sequential, or not the acknowledged winner (%s)",
					itemID, i, v.Version, v.Checksum, acked[it][v.Version])
			}
		}
		if len(got) != len(acked[it]) {
			t.Fatalf("%s: %d committed acks but %d logged versions — a version slot had two winners or a winner vanished",
				itemID, len(acked[it]), len(got))
		}
	}
}

// --- Snapshot-isolation harness for the MVCC read path (DESIGN §16) ---
//
// Writers commit batches that move EVERY item of their workspace to the same
// version k (checksum "b<k>"), so the serial reference at any committed
// version is trivial to state: all items at one version. A reader that ever
// observes a mixed state saw a torn batch — exactly what the atomic snapshot
// swap must make impossible. ChangesSince replies are checked against the
// same model: a tail must be contiguous, grouped in whole batches, and end
// at a batch boundary; a Full reply must be a clean batch-aligned state. The
// log retention is kept tiny so compaction (automatic and forced) runs
// concurrently with the readers, exercising the full-state fallback under
// race as well.

// siCheckState verifies one observed state against the all-items-at-one-
// version model and returns the batch number it is consistent at.
func siCheckState(t *testing.T, ws string, items int, state []ItemVersion) uint64 {
	t.Helper()
	if len(state) == 0 {
		return 0
	}
	if len(state) != items {
		t.Errorf("%s: state has %d items, want 0 or %d: torn batch", ws, len(state), items)
		return 0
	}
	k := state[0].Version
	for _, v := range state {
		if v.Version != k || v.Checksum != fmt.Sprintf("b%d", k) {
			t.Errorf("%s: mixed state: item %s at v%d (%s), first item at v%d — torn batch visible",
				ws, v.ItemID, v.Version, v.Checksum, k)
			return k
		}
	}
	return k
}

func TestSnapshotIsolationUnderConcurrentCommits(t *testing.T) {
	const (
		workspaces = 4
		items      = 8
		batches    = 120
		readers    = 6
	)
	// Retention far below items*batches, and not batch-aligned, so automatic
	// compaction keeps trimming mid-run and its watermark can land mid-batch.
	reg := obs.NewRegistry()
	s := NewStore(WithLogRetention(42), WithRegistry(reg))
	wsID := func(w int) string { return fmt.Sprintf("ws-%d", w) }
	for w := 0; w < workspaces; w++ {
		if err := s.CreateWorkspace(Workspace{ID: wsID(w), Owner: "u"}); err != nil {
			t.Fatal(err)
		}
	}

	stop := make(chan struct{})
	var writers, aux sync.WaitGroup

	// N writers: one per workspace, each committing whole-workspace batches.
	for w := 0; w < workspaces; w++ {
		w := w
		writers.Add(1)
		go func() {
			defer writers.Done()
			for k := uint64(1); k <= batches; k++ {
				batch := make([]ItemVersion, items)
				for i := range batch {
					status := Modified
					if k == 1 {
						status = Added
					}
					batch[i] = ItemVersion{
						Workspace: wsID(w), ItemID: fmt.Sprintf("it-%d", i),
						Path: fmt.Sprintf("/it-%d", i), Version: k, Status: status,
						Checksum: fmt.Sprintf("b%d", k),
					}
				}
				res, err := s.CommitBatch(batch)
				if err != nil {
					t.Errorf("ws-%d batch %d: %v", w, k, err)
					return
				}
				for _, r := range res {
					if !r.Committed {
						t.Errorf("ws-%d batch %d: unexpected conflict at v%d", w, k, r.Version.Version)
						return
					}
				}
			}
		}()
	}

	// A compactor forcing extra watermark movement while readers are mid-read.
	aux.Add(1)
	go func() {
		defer aux.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			for w := 0; w < workspaces; w++ {
				if _, err := s.CompactLog(wsID(w), items/2); err != nil {
					t.Errorf("compact %s: %v", wsID(w), err)
					return
				}
			}
		}
	}()

	// M readers: loop State and ChangesSince against every workspace,
	// checking snapshot isolation and per-reader monotonicity.
	for g := 0; g < readers; g++ {
		aux.Add(1)
		go func() {
			defer aux.Done()
			lastK := make([]uint64, workspaces)  // newest batch seen via State
			cursor := make([]uint64, workspaces) // ChangesSince resync cursor
			for {
				select {
				case <-stop:
					return
				default:
				}
				for w := 0; w < workspaces; w++ {
					state, err := s.State(wsID(w))
					if err != nil {
						t.Errorf("state %s: %v", wsID(w), err)
						return
					}
					k := siCheckState(t, wsID(w), items, state)
					if k < lastK[w] {
						t.Errorf("%s: State went back in time: batch %d after %d", wsID(w), k, lastK[w])
						return
					}
					lastK[w] = k

					ch, err := s.ChangesSince(wsID(w), cursor[w])
					if err != nil {
						t.Errorf("changesSince %s: %v", wsID(w), err)
						return
					}
					if ch.Version < cursor[w] {
						t.Errorf("%s: ChangesSince regressed: version %d below cursor %d", wsID(w), ch.Version, cursor[w])
						return
					}
					if ch.Version%items != 0 {
						t.Errorf("%s: reply version %d not batch-aligned: torn batch visible", wsID(w), ch.Version)
						return
					}
					if ch.Full {
						siCheckState(t, wsID(w), items, ch.Items)
					} else {
						if uint64(len(ch.Items)) != ch.Version-cursor[w] {
							t.Errorf("%s: tail of %d entries does not cover (%d, %d]",
								wsID(w), len(ch.Items), cursor[w], ch.Version)
							return
						}
						for j, e := range ch.Items {
							v := cursor[w] + 1 + uint64(j) // workspace version of this entry
							batch := (v-1)/items + 1
							if e.Version != batch || e.Checksum != fmt.Sprintf("b%d", batch) {
								t.Errorf("%s: tail entry %d (ws version %d) is item v%d (%s), want batch %d",
									wsID(w), j, v, e.Version, e.Checksum, batch)
								return
							}
						}
					}
					cursor[w] = ch.Version
				}
			}
		}()
	}

	writers.Wait()
	close(stop)
	aux.Wait()
	if t.Failed() {
		return
	}

	// Final state: the serial reference at the last committed version.
	for w := 0; w < workspaces; w++ {
		state, err := s.State(wsID(w))
		if err != nil {
			t.Fatal(err)
		}
		version := snap(t, s, wsID(w)).version
		if version != uint64(items*batches) {
			t.Fatalf("%s: final version %d, want %d", wsID(w), version, items*batches)
		}
		if k := siCheckState(t, wsID(w), items, state); k != batches {
			t.Fatalf("%s: final state at batch %d, want %d", wsID(w), k, batches)
		}
		ch, err := s.ChangesSince(wsID(w), version)
		if err != nil || ch.Full || len(ch.Items) != 0 || ch.Version != version {
			t.Fatalf("%s: caught-up reply: %+v err=%v", wsID(w), ch, err)
		}
	}
	if reg.CounterValue("metastore_log_compactions_total") == 0 {
		t.Fatal("retention never compacted: the fallback path was not exercised")
	}
}

package bench

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"stacksync/internal/core"
	"stacksync/internal/deploy"
	"stacksync/internal/metastore"
	"stacksync/internal/omq"
)

// TestCrossInstanceLinearizability extends the metastore property harness
// across instance boundaries: per workspace, several racers propose the same
// item's version chain through sync calls on the shared request queue, each
// from its own broker, while the fleet is scaled 1 → 4 → 2 and instances are
// killed mid-commit. A killed instance's call is redelivered, and a timed-out
// call retried, to whichever instance is live, so one proposal may execute
// on two instances; the metastore's replay detection must re-ack the second
// execution. Version precedence must serialize the contested chain to
// exactly one item at the final version, and every racer's own (uncontested)
// acked commit must survive.
func TestCrossInstanceLinearizability(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second cross-instance race")
	}
	const (
		workspaces = 3
		racers     = 3
		rounds     = 6
	)
	wsName := func(i int) string { return fmt.Sprintf("lin-ws-%d", i) }
	var target atomic.Int64
	target.Store(1)
	fleet, err := deploy.Start(deploy.Config{
		Workspaces: workspacesOf(workspaces, wsName),
		Supervisor: &omq.SupervisorConfig{
			CheckEvery: 40 * time.Millisecond,
			Provisioner: omq.ProvisionerFunc(func(time.Time, omq.ObjectInfo) int {
				return int(target.Load())
			}),
			MaxInstances:    6,
			InventoryWindow: 50 * time.Millisecond,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fleet.Close()

	// One proxy per racer, each on its own broker: independent reply
	// queues, independent retry state.
	proxies := make([][]*omq.Proxy, workspaces)
	for w := 0; w < workspaces; w++ {
		proxies[w] = make([]*omq.Proxy, racers)
		for r := 0; r < racers; r++ {
			cb, err := omq.NewBroker(fleet.MQ, omq.WithID(fmt.Sprintf("30-racer-%d-%d", w, r)))
			if err != nil {
				t.Fatal(err)
			}
			defer cb.Close()
			proxies[w][r] = cb.Lookup(core.ServiceOID, omq.WithTimeout(300*time.Millisecond),
				omq.WithRetries(14), omq.WithBackoff(15*time.Millisecond, 200*time.Millisecond))
		}
	}

	// Killer: crash one instance every 220 ms while the race runs.
	var kills atomic.Int64
	stopKill := make(chan struct{})
	killDone := make(chan struct{})
	go func() {
		defer close(killDone)
		for {
			select {
			case <-stopKill:
				return
			case <-time.After(220 * time.Millisecond):
			}
			if fleet.Kill() != "" {
				kills.Add(1)
			}
		}
	}()

	// The race: every round, all racers of a workspace propose version v of
	// the same contested item (exactly one can win) plus one uncontested item
	// of their own (which must always land). Rounds are barriers, so the
	// contested chain must reach exactly `rounds`.
	for v := uint64(1); v <= rounds; v++ {
		switch v {
		case 3:
			target.Store(4) // scale out mid-race
		case 5:
			target.Store(2) // scale in mid-race
		}
		var wg sync.WaitGroup
		errCh := make(chan error, workspaces*racers)
		for w := 0; w < workspaces; w++ {
			for r := 0; r < racers; r++ {
				wg.Add(1)
				go func(w, r int, v uint64) {
					defer wg.Done()
					ws := wsName(w)
					status := metastore.Modified
					if v == 1 {
						status = metastore.Added
					}
					contested := metastore.ItemVersion{
						Workspace: ws, ItemID: ws + ":contested", Path: "contested.txt",
						Version: v, Status: status, Size: 1,
						DeviceID: fmt.Sprintf("racer-%d", r),
					}
					own := metastore.ItemVersion{
						Workspace: ws, ItemID: fmt.Sprintf("%s:own-%d-%d", ws, r, v),
						Path:    fmt.Sprintf("racer%d/u-%02d.txt", r, v),
						Version: 1, Status: metastore.Added, Size: 1,
						DeviceID: fmt.Sprintf("racer-%d", r),
					}
					req := core.CommitRequest{
						Workspace: ws, DeviceID: contested.DeviceID,
						Items: []metastore.ItemVersion{contested, own},
					}
					if err := proxies[w][r].Call("CommitRequest", nil, req); err != nil {
						errCh <- fmt.Errorf("ws %d racer %d round %d: %w", w, r, v, err)
					}
				}(w, r, v)
			}
		}
		wg.Wait()
		close(errCh)
		for err := range errCh {
			t.Fatal(err)
		}
		// Dwell between rounds so the kill schedule and the Supervisor's
		// respawns interleave with the proposals instead
		// of the whole race outrunning the first crash.
		time.Sleep(120 * time.Millisecond)
	}
	close(stopKill)
	<-killDone
	if kills.Load() == 0 {
		t.Fatal("no instance crash landed during the race; the test proved nothing")
	}

	// Linearizability: the contested chain serialized to exactly `rounds`,
	// and no acked uncontested commit was lost.
	for w := 0; w < workspaces; w++ {
		state, err := fleet.Meta.State(wsName(w))
		if err != nil {
			t.Fatal(err)
		}
		byPath := make(map[string]metastore.ItemVersion, len(state))
		for _, item := range state {
			byPath[item.Path] = item
		}
		contested, ok := byPath["contested.txt"]
		if !ok {
			t.Fatalf("ws %d: contested item vanished", w)
		}
		if contested.Version != rounds {
			t.Fatalf("ws %d: contested chain at version %d, want %d (lost or double-applied update)",
				w, contested.Version, rounds)
		}
		for r := 0; r < racers; r++ {
			for v := 1; v <= rounds; v++ {
				p := fmt.Sprintf("racer%d/u-%02d.txt", r, v)
				got, ok := byPath[p]
				if !ok {
					t.Fatalf("ws %d: acked commit %q lost across failover", w, p)
				}
				if got.Version != 1 {
					t.Fatalf("ws %d: %q at version %d, want 1", w, p, got.Version)
				}
			}
		}
		want := 1 + racers*rounds
		if len(state) != want {
			t.Fatalf("ws %d: %d items in final state, want %d", w, len(state), want)
		}
	}
}

// TestUB1MultiReplay replays a compressed slice of the UB1 day-8 peak hour
// over 4 live instances on the shared queue: every acked commit must be
// durable and the paper's 450 ms SLA must be attained.
func TestUB1MultiReplay(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second trace replay")
	}
	res, err := RunUB1Multi(UB1MultiConfig{
		Seed:     7,
		Commits:  1200,
		Duration: 2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	res.Print(&buf)
	if res.Failed > 0 {
		t.Fatalf("%d commits failed outright:\n%s", res.Failed, buf.String())
	}
	if res.Lost > 0 {
		t.Fatalf("%d acked commits missing from the metadata store:\n%s", res.Lost, buf.String())
	}
	if !res.SLOMet {
		t.Fatalf("SLO missed (attainment %.4f < %.2f):\n%s", res.Attainment, res.SLOObjective, buf.String())
	}
	if res.Live != 4 {
		t.Fatalf("%d instances live after the replay, want 4:\n%s", res.Live, buf.String())
	}
}

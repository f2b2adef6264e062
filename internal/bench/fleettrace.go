package bench

import (
	"context"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"stacksync/internal/core"
	"stacksync/internal/deploy"
	"stacksync/internal/metastore"
	"stacksync/internal/obs"
	"stacksync/internal/omq"
)

// FleetTraceConfig parameterizes the fleet-observability smoke: a routed
// SyncService fleet where every instance exports its own tracer, registry,
// event log and hot-workspace sketch into an obs.Collector, a client whose
// commits are routed with per-attempt spans, and one deliberate owner kill
// so a failed-over commit produces a stitched cross-instance trace.
type FleetTraceConfig struct {
	// Seed fixes the workload shape (paths/content only; the scenario is
	// otherwise deterministic).
	Seed int64
	// Instances is the fleet size (default 2).
	Instances int
	// Workspaces is the number of warm workspaces (default 4).
	Workspaces int
	// WarmCommits is the number of commits per warm workspace before the
	// kill; the first workspace receives 3× that to become the heavy hitter
	// the sketch must surface (default 3).
	WarmCommits int
	// CheckEvery is the Supervisor's enforcement period (default 40 ms).
	CheckEvery time.Duration
}

func (c *FleetTraceConfig) applyDefaults() {
	if c.Instances <= 0 {
		c.Instances = 2
	}
	if c.Workspaces <= 0 {
		c.Workspaces = 4
	}
	if c.WarmCommits <= 0 {
		c.WarmCommits = 3
	}
	if c.CheckEvery <= 0 {
		c.CheckEvery = 40 * time.Millisecond
	}
}

func fleetTraceWorkspace(i int) string { return fmt.Sprintf("fleet-ws-%d", i) }

// countFailoverTraces scans every stitched trace in the collector and counts
// those containing at least one router attempt span annotated with a
// failover cause — the "did the failover leave a readable trace" check the
// chaos scenarios assert.
func countFailoverTraces(collector *obs.Collector) (total, failover int) {
	for _, id := range collector.TraceIDs() {
		st, ok := collector.Trace(id)
		if !ok {
			continue
		}
		total++
		for _, sp := range st.Spans {
			if strings.HasPrefix(sp.Name, "omq.attempt.") && sp.Annot("cause") != "" {
				failover++
				break
			}
		}
	}
	return total, failover
}

// FleetTraceResult reports the smoke's outcome.
type FleetTraceResult struct {
	Seed      int64 `json:"seed"`
	Instances int   `json:"instances"`
	Commits   int   `json:"commits"`
	// Failover-trace anatomy.
	TraceID        string `json:"traceId"`
	TraceSpans     int    `json:"traceSpans"`
	TraceInstances int    `json:"traceInstances"`
	AttemptSpans   int    `json:"attemptSpans"`
	FailoverCause  string `json:"failoverCause"`
	// PathInstances counts distinct instances on the stitched critical path —
	// ≥ 2 means the path crosses the process boundary.
	PathInstances int  `json:"pathInstances"`
	Partial       bool `json:"partial"`
	// Fleet rollup after the kill and the drain.
	CollectedSpans int    `json:"collectedSpans"`
	KilledInstance string `json:"killedInstance"`
	DrainedClean   bool   `json:"drainedClean"`
	HotTop         string `json:"hotTop"`
	HotTopCommits  uint64 `json:"hotTopCommits"`
	// Violations lists every broken invariant (empty on a clean run).
	Violations []string `json:"violations,omitempty"`
}

// RunFleetTrace executes the fleet-observability smoke:
//
//  1. spawn a routed fleet whose instances get per-instance obs through
//     RemoteBroker spawn hooks, all registered with one Collector;
//  2. commit a warm workload (one workspace deliberately hot);
//  3. kill an instance, then commit — under the client's still-stale ring —
//     to a workspace the corpse owned, forcing a traced failover;
//  4. drain the fleet by one and verify the collector separates the crash
//     (spans lost) from the drain (final scrape granted);
//  5. check the stitched trace: router attempt spans with a failover cause,
//     spans from both sides of the RPC, and a critical path that crosses
//     the instance boundary.
func RunFleetTrace(cfg FleetTraceConfig) (*FleetTraceResult, error) {
	cfg.applyDefaults()
	var target atomic.Int64
	target.Store(int64(cfg.Instances))
	// Per-instance observability, built at spawn and registered with one
	// Collector the smoke scrapes by hand.
	fleet, err := deploy.Start(deploy.Config{
		Workspaces: workspacesOf(cfg.Workspaces, fleetTraceWorkspace),
		FleetObs:   true,
		Supervisor: &omq.SupervisorConfig{
			CheckEvery: cfg.CheckEvery,
			Provisioner: omq.ProvisionerFunc(func(time.Time, omq.ObjectInfo) int {
				return int(target.Load())
			}),
			MaxInstances:    cfg.Instances + 2,
			Routing:         true,
			InventoryWindow: 50 * time.Millisecond,
		},
	})
	if err != nil {
		return nil, err
	}
	defer fleet.Close()
	if err := fleet.WaitInstances(cfg.Instances, 10*time.Second); err != nil {
		return nil, err
	}
	collector := fleet.Collector

	// The client is a pseudo-source: no epoch/readiness, but its sink holds
	// the root/route/attempt spans every stitched trace starts from.
	clientSink := obs.NewSpanSink(0)
	clientReg := obs.NewRegistry()
	clientTracer := obs.NewTracer(obs.WithSink(clientSink), obs.WithInstance("client"))
	clientBroker, err := omq.NewBroker(fleet.MQ, omq.WithID("40-client"),
		omq.WithTracer(clientTracer), omq.WithRegistry(clientReg))
	if err != nil {
		return nil, err
	}
	defer clientBroker.Close()
	collector.Register(obs.Source{InstanceID: "client", Registry: clientReg, Sink: clientSink})
	router := omq.NewRouter(clientBroker, omq.RouterConfig{
		OID:         core.ServiceOID,
		Timeout:     400 * time.Millisecond,
		Attempts:    8,
		BackoffBase: 5 * time.Millisecond,
		BackoffMax:  50 * time.Millisecond,
	})
	router.Refresh()

	res := &FleetTraceResult{Seed: cfg.Seed, Instances: cfg.Instances}
	commit := func(ws, path string, size int64) (string, error) {
		root := clientTracer.StartRoot("client.commit")
		ctx := obs.ContextWith(context.Background(), root.Context())
		req := core.CommitRequest{
			Workspace: ws,
			DeviceID:  "fleet-dev",
			Items: []metastore.ItemVersion{{
				Workspace: ws,
				ItemID:    ws + ":" + path,
				Path:      path,
				Version:   1,
				Status:    metastore.Added,
				Size:      size,
				DeviceID:  "fleet-dev",
			}},
		}
		err := router.CallCtx(ctx, ws, "CommitRequest", nil, req)
		root.End()
		if err == nil {
			res.Commits++
		}
		return root.Context().TraceID, err
	}

	// Warm workload: the first workspace commits 3× as often with bigger
	// items, so it must dominate all three fleet sketches.
	for i := 0; i < cfg.Workspaces; i++ {
		ws := fleetTraceWorkspace(i)
		n, size := cfg.WarmCommits, int64(1024)
		if i == 0 {
			n, size = 3*cfg.WarmCommits, 8*1024
		}
		for k := 0; k < n; k++ {
			if _, err := commit(ws, fmt.Sprintf("warm/f-%d-%d.txt", cfg.Seed, k), size); err != nil {
				return nil, fmt.Errorf("bench: warm commit %s: %w", ws, err)
			}
		}
	}
	collector.Collect()

	// Kill the owner of a chosen workspace. The router deliberately keeps
	// its now-stale ring, so the post-kill commit to that workspace must
	// fail over: the first attempt hits the dead owner's queue, the router
	// refreshes and retries against the repaired ring.
	staleRing := router.Ring()
	if staleRing == nil {
		return nil, fmt.Errorf("bench: router never adopted a ring")
	}
	victimWS := fleetTraceWorkspace(1)
	oldEpoch := fleet.Ring().Epoch()
	killed := staleRing.Owner(victimWS)
	if !fleet.KillByID(killed) {
		return nil, fmt.Errorf("bench: owner %s of %s not running locally", killed, victimWS)
	}
	res.KilledInstance = killed
	deadline := time.Now().Add(10 * time.Second)
	for fleet.Instances() < cfg.Instances || fleet.Ring().Epoch() <= oldEpoch {
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("bench: fleet never recovered from kill")
		}
		time.Sleep(5 * time.Millisecond)
	}

	traceID, err := commit(victimWS, "failover/f-0.txt", 2048)
	if err != nil {
		return nil, fmt.Errorf("bench: failover commit: %w", err)
	}
	res.TraceID = traceID
	collector.Collect()

	// Drain one instance cleanly (scale cfg.Instances → cfg.Instances-1):
	// unlike the kill, the Stopped hook grants a final scrape, so a drained
	// instance's spans survive in the collector.
	target.Store(int64(cfg.Instances - 1))
	if err := fleet.WaitInstances(cfg.Instances-1, 10*time.Second); err != nil {
		return nil, err
	}
	// The Stopped hook marks the drained instance dead asynchronously with
	// respect to the instance-count drop, so wait for the rollup to reflect
	// the clean exit; on timeout the DrainedClean violation below reports it.
	deadline = time.Now().Add(10 * time.Second)
	for !rollupHasCleanDrain(collector, killed) && !time.Now().After(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	res.CollectedSpans = collector.Collect()

	st, ok := collector.Trace(traceID)
	if ok {
		res.TraceSpans = len(st.Spans)
		res.TraceInstances = len(st.Instances)
		res.Partial = st.Partial
		for _, sp := range st.Spans {
			if strings.HasPrefix(sp.Name, "omq.attempt.") {
				res.AttemptSpans++
				if c := sp.Annot("cause"); c != "" && res.FailoverCause == "" {
					res.FailoverCause = c
				}
			}
		}
		pathInst := make(map[string]bool)
		for _, seg := range obs.CriticalPathDeep(st.Spans) {
			if seg.Instance != "" {
				pathInst[seg.Instance] = true
			}
		}
		res.PathInstances = len(pathInst)
	}

	rollup := collector.Rollup()
	for _, inst := range rollup.Instances {
		if inst.InstanceID == killed && !inst.Alive && inst.CleanExit {
			res.Violations = append(res.Violations, "killed instance reported as clean drain")
		}
		if !inst.Alive && inst.InstanceID != killed && inst.CleanExit {
			res.DrainedClean = true
		}
	}
	if len(rollup.HotCommits) > 0 {
		res.HotTop = rollup.HotCommits[0].Key
		res.HotTopCommits = rollup.HotCommits[0].Count
	}

	res.Violations = append(res.Violations, fleetTraceViolations(res, ok)...)
	sort.Strings(res.Violations)
	return res, nil
}

// rollupHasCleanDrain reports whether any instance other than the killed one
// shows up in the collector's rollup as a clean exit.
func rollupHasCleanDrain(c *obs.Collector, killed string) bool {
	for _, inst := range c.Rollup().Instances {
		if !inst.Alive && inst.InstanceID != killed && inst.CleanExit {
			return true
		}
	}
	return false
}

// fleetTraceViolations enumerates broken invariants for the report.
func fleetTraceViolations(res *FleetTraceResult, traced bool) []string {
	var v []string
	if !traced {
		return append(v, "failover trace missing from collector")
	}
	if res.TraceInstances < 2 {
		v = append(v, fmt.Sprintf("stitched trace spans %d instance(s), want >= 2", res.TraceInstances))
	}
	if res.AttemptSpans < 2 {
		v = append(v, fmt.Sprintf("failover trace has %d attempt spans, want >= 2", res.AttemptSpans))
	}
	switch res.FailoverCause {
	case omq.CauseStaleRoute, omq.CauseRoutedTimeout, omq.CauseQueueNotFound:
	case "":
		v = append(v, "no attempt span carries a failover cause")
	default:
		v = append(v, fmt.Sprintf("unexpected failover cause %q", res.FailoverCause))
	}
	if res.PathInstances < 2 {
		v = append(v, fmt.Sprintf("critical path touches %d instance(s), want >= 2 (cross-process attribution)", res.PathInstances))
	}
	if res.Partial {
		v = append(v, "failover trace marked partial despite surviving instances")
	}
	if !res.DrainedClean {
		v = append(v, "no instance recorded as a clean drain after scale-down")
	}
	if res.HotTop != fleetTraceWorkspace(0) {
		v = append(v, fmt.Sprintf("fleet hot-commit top is %q, want %q", res.HotTop, fleetTraceWorkspace(0)))
	}
	return v
}

// Print writes the smoke summary.
func (r *FleetTraceResult) Print(w io.Writer) {
	fmt.Fprintf(w, "Fleet-trace smoke — seed %d: %d commits over a %d-instance routed fleet\n",
		r.Seed, r.Commits, r.Instances)
	fmt.Fprintf(w, "%-22s %s (%d spans, %d instances, %d attempts, cause %q)\n",
		"failover trace", r.TraceID, r.TraceSpans, r.TraceInstances, r.AttemptSpans, r.FailoverCause)
	fmt.Fprintf(w, "%-22s crosses %d instances\n", "critical path", r.PathInstances)
	fmt.Fprintf(w, "%-22s killed %s (spans lost), clean drain observed: %v\n",
		"lifecycle", r.KilledInstance, r.DrainedClean)
	fmt.Fprintf(w, "%-22s %s (%d commits)\n", "hot workspace", r.HotTop, r.HotTopCommits)
	for _, v := range r.Violations {
		fmt.Fprintf(w, "VIOLATION: %s\n", v)
	}
}

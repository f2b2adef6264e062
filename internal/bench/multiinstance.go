package bench

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"stacksync/internal/chunker"
	"stacksync/internal/client"
	"stacksync/internal/core"
	"stacksync/internal/deploy"
	"stacksync/internal/faults"
	"stacksync/internal/metastore"
	"stacksync/internal/mq"
	"stacksync/internal/objstore"
	"stacksync/internal/obs"
	"stacksync/internal/omq"
	"stacksync/internal/trace"
)

// MultiChaosConfig parameterizes the cross-instance chaos soak: the chaos
// stack of RunChaos, but with workspace-affinity routing enabled and the
// SyncService fleet scaled through a phase schedule (default 1 → 4 → 2)
// while instances are crashed mid-commit. Every client routes its commits
// through an omq.Router, so the soak exercises the full failover machinery:
// ring pushes, epoch fencing, stale-route retries and owner-timeout failover
// — across instance boundaries, not just across respawns of a single one.
type MultiChaosConfig struct {
	// Seed fixes the entire fault schedule; same seed, same chaos.
	Seed int64
	// Workspaces is the number of sync workspaces; devices are assigned
	// round-robin, so keys spread over the ring (default 4).
	Workspaces int
	// Clients is the number of devices writing concurrently (default 6).
	Clients int
	// CommitsPerClient is the number of files each device writes (default 10).
	CommitsPerClient int
	// CommitGap is the idle time between a device's commits (default 10 ms).
	CommitGap time.Duration
	// Phases is the fleet-size schedule the Supervisor is driven through
	// (default 1, 4, 2 — grow under load, then shrink under load).
	Phases []int
	// PhaseEvery is the dwell time between phase switches (default 400 ms).
	PhaseEvery time.Duration
	// CrashEvery is the mean period of the instance-crash schedule (default
	// 500 ms; jittered ±50% deterministically from the seed).
	CrashEvery time.Duration
	// CheckEvery is the Supervisor's enforcement period (default 60 ms).
	CheckEvery time.Duration
	// Settle caps how long the run may take to converge after the workload
	// stops (default 30 s).
	Settle time.Duration
}

func (c *MultiChaosConfig) applyDefaults() {
	if c.Workspaces <= 0 {
		c.Workspaces = 4
	}
	if c.Clients <= 0 {
		c.Clients = 6
	}
	if c.CommitsPerClient <= 0 {
		c.CommitsPerClient = 10
	}
	if c.CommitGap <= 0 {
		c.CommitGap = 10 * time.Millisecond
	}
	if len(c.Phases) == 0 {
		c.Phases = []int{1, 4, 2}
	}
	if c.PhaseEvery <= 0 {
		c.PhaseEvery = 400 * time.Millisecond
	}
	if c.CrashEvery <= 0 {
		c.CrashEvery = 500 * time.Millisecond
	}
	if c.CheckEvery <= 0 {
		c.CheckEvery = 60 * time.Millisecond
	}
	if c.Settle <= 0 {
		c.Settle = 30 * time.Second
	}
}

func multiChaosWorkspace(i int) string { return fmt.Sprintf("mchaos-ws-%d", i) }

// multiChaosPlan builds the fault plan. Slightly gentler than chaosPlan on
// the client MQ edge — routed commits are synchronous, so every fault there
// spends part of a bounded retry budget instead of an open-ended
// retransmission loop.
func multiChaosPlan(cfg MultiChaosConfig, reg *obs.Registry) *faults.Plan {
	horizon := time.Duration(cfg.CommitsPerClient) * (cfg.CommitGap + 40*time.Millisecond)
	if horizon < time.Second {
		horizon = time.Second
	}
	return faults.NewPlan(faults.Config{
		Seed:     cfg.Seed,
		Registry: reg,
		Sites: map[string]faults.SiteConfig{
			// Client-side publishes: routed commitRequests vanish, dup, lag —
			// this is the proxy↔instance partition of the issue brief.
			"mq.client": {DropP: 0.04, DupP: 0.04, DelayP: 0.08, MaxDelay: 15 * time.Millisecond},
			// Notification pushes: the lossiest hop — resync must repair.
			deploy.FaultSiteNotify: {DropP: 0.10, DupP: 0.05, DelayP: 0.10, MaxDelay: 20 * time.Millisecond},
			// Storage: transient errors, latency spikes, one outage window.
			"objstore": {
				ErrorP: 0.08, DelayP: 0.08, MaxDelay: 10 * time.Millisecond,
				Outages: faults.RandomOutages(cfg.Seed, "objstore", 1, 200*time.Millisecond, horizon),
			},
			// Metadata transactions: sporadic aborts the pipeline must retry.
			deploy.FaultSiteMeta: {AbortP: 0.10},
		},
	})
}

// MultiChaosResult reports the cross-instance soak's outcome.
type MultiChaosResult struct {
	Seed       int64         `json:"seed"`
	Workspaces int           `json:"workspaces"`
	Clients    int           `json:"clients"`
	Commits    int           `json:"commits"`
	Phases     []int         `json:"phases"`
	Crashes    int           `json:"crashes"`
	MaxRespawn time.Duration `json:"maxRespawn"`
	SettleTime time.Duration `json:"settleTime"`
	Converged  bool          `json:"converged"`
	// ScheduleStable is true when rebuilding the plan from the same seed
	// yields a byte-identical schedule description.
	ScheduleStable bool `json:"scheduleStable"`
	// Fleet and ring state after the final phase settled.
	FinalInstances int    `json:"finalInstances"`
	FinalRingSize  int    `json:"finalRingSize"`
	RingEpoch      uint64 `json:"ringEpoch"`
	// Rebalances counts supervisor.rebalance events in the flight recorder.
	Rebalances int `json:"rebalances"`
	// Router/fencing traffic over the whole run.
	RoutedCalls  uint64            `json:"routedCalls"`
	StaleRejects uint64            `json:"staleRejects"`
	Failovers    uint64            `json:"failovers"`
	Fenced       uint64            `json:"fenced"`
	FaultCounts  map[string]uint64 `json:"faultCounts"`
	// Fleet observability: stitched traces collected across instances, how
	// many contain a cause-annotated router failover, and the fleet-merged
	// hottest workspace by commits.
	StitchedTraces int    `json:"stitchedTraces"`
	FailoverTraces int    `json:"failoverTraces"`
	HotTop         string `json:"hotTop"`
	HotTopCommits  uint64 `json:"hotTopCommits"`
	// Violations lists every broken invariant (empty on a clean run).
	Violations []string `json:"violations,omitempty"`
}

// RunMultiChaos executes the cross-instance chaos soak and checks
// convergence: every acked commit present on every device of its workspace,
// no spurious conflict copies, the fleet and ring settled on the final phase.
func RunMultiChaos(cfg MultiChaosConfig) (*MultiChaosResult, error) {
	cfg.applyDefaults()
	reg := obs.NewRegistry()
	events := obs.NewEventLog(4096)
	plan := multiChaosPlan(cfg, reg)
	scheduleStable := bytes.Equal(
		[]byte(plan.Describe(512)),
		[]byte(multiChaosPlan(cfg, nil).Describe(512)),
	)

	// Routing supervisor driven through the phase schedule by an atomic
	// target the phase driver advances.
	var target atomic.Int64
	target.Store(int64(cfg.Phases[0]))
	maxPhase := 0
	for _, p := range cfg.Phases {
		maxPhase = max(maxPhase, p)
	}
	fleet, err := deploy.Start(deploy.Config{
		Workspaces: workspacesOf(cfg.Workspaces, multiChaosWorkspace),
		Registry:   reg,
		Events:     events,
		Faults:     plan,
		// Fleet observability (DESIGN §15): every spawned instance exports its
		// own tracer/registry/events/sketch into one Collector, polled while
		// the chaos runs so crashes only lose the spans buffered since the
		// last scrape.
		FleetObs:     true,
		CollectEvery: 50 * time.Millisecond,
		Supervisor: &omq.SupervisorConfig{
			CheckEvery: cfg.CheckEvery,
			Provisioner: omq.ProvisionerFunc(func(time.Time, omq.ObjectInfo) int {
				return int(target.Load())
			}),
			MaxInstances: maxPhase + 2,
			Routing:      true,
			// Keep the rebalance latency (inventory collection + ring push)
			// well under the crash cadence, or the ring would chronically
			// trail the fleet and every routed call would spend its budget on
			// corpses.
			InventoryWindow: 50 * time.Millisecond,
		},
	})
	if err != nil {
		return nil, err
	}
	defer fleet.Close()
	if err := fleet.WaitInstances(cfg.Phases[0], 10*time.Second); err != nil {
		return nil, err
	}
	collector := fleet.Collector
	faultyStore := objstore.NewFaulty(fleet.Chunks, plan, "objstore", nil)

	// Client devices: each on its own broker over the faulty client MQ view,
	// with a Router so commits and resyncs follow workspace affinity.
	wsOf := func(i int) string { return multiChaosWorkspace(i % cfg.Workspaces) }
	clients := make([]*client.Client, cfg.Clients)
	for i := range clients {
		// Each device traces into its own sink and joins the collector as a
		// pseudo-source: the root/route/attempt spans of every routed commit
		// live client-side, so a failover is traceable even when the owner
		// that dropped it died unscraped.
		clientID := fmt.Sprintf("30-client-%d", i)
		clientSink := obs.NewSpanSink(0)
		clientTracer := obs.NewTracer(obs.WithSink(clientSink), obs.WithInstance(clientID))
		collector.Register(obs.Source{InstanceID: clientID, Sink: clientSink})
		cb, err := omq.NewBroker(mq.NewFaulty(fleet.MQ, plan, "mq.client", nil),
			omq.WithID(clientID), omq.WithRegistry(reg), omq.WithTracer(clientTracer))
		if err != nil {
			return nil, err
		}
		defer cb.Close()
		router := omq.NewRouter(cb, omq.RouterConfig{
			OID:         core.ServiceOID,
			Timeout:     400 * time.Millisecond,
			Attempts:    14,
			BackoffBase: 15 * time.Millisecond,
			BackoffMax:  250 * time.Millisecond,
		})
		cl, err := client.NewClient(client.Config{
			UserID:      "user-0",
			DeviceID:    fmt.Sprintf("dev-%d", i),
			WorkspaceID: wsOf(i),
			Broker:      cb,
			Router:      router,
			Storage:     faultyStore,
			Registry:    reg,
			Tracer:      clientTracer,
			Chunker:     chunker.Fixed{ChunkSize: 4 * 1024},
			CallTimeout: 500 * time.Millisecond, CallRetries: 10,
			StoreBackoff: 5 * time.Millisecond, BreakerThreshold: 4,
			BreakerCooldown: 150 * time.Millisecond,
			RetransmitEvery: 250 * time.Millisecond,
			ResyncEvery:     250 * time.Millisecond,
		})
		if err != nil {
			return nil, err
		}
		if err := cl.Start(); err != nil {
			return nil, fmt.Errorf("bench: start client %d: %w", i, err)
		}
		defer cl.Close()
		clients[i] = cl
	}

	start := time.Now()
	plan.Begin(start)

	// Phase driver: walk the fleet through the schedule while the workload
	// runs. It is never cut short — the final phase must be applied so the
	// end-state checks (ring size, instance count) are meaningful.
	phaseDone := make(chan struct{})
	go func() {
		defer close(phaseDone)
		for _, ph := range cfg.Phases[1:] {
			time.Sleep(cfg.PhaseEvery)
			target.Store(int64(ph))
		}
	}()

	// Crash schedule: kill -9 one instance at a time; the Supervisor must
	// respawn to the current phase target and re-push the ring.
	crashes := startCrashes(fleet, start, faults.CrashSchedule(cfg.Seed, cfg.CrashEvery, 0.5, cfg.Settle),
		func() int { return int(target.Load()) })
	defer crashes.Stop()

	// Workload: each device writes its own distinct paths into its own
	// workspace; a routed PutFile acks only once the metadata commit is
	// durable, so "acked" here is the strong notion the issue demands.
	expected := make(map[string]map[string]string) // workspace -> path -> content
	for i := 0; i < cfg.Workspaces; i++ {
		expected[multiChaosWorkspace(i)] = make(map[string]string)
	}
	var expMu sync.Mutex
	var wg sync.WaitGroup
	errCh := make(chan error, cfg.Clients)
	for i, cl := range clients {
		wg.Add(1)
		go func(i int, cl *client.Client) {
			defer wg.Done()
			for k := 0; k < cfg.CommitsPerClient; k++ {
				path := fmt.Sprintf("dev%d/file-%04d.txt", i, k)
				content := fmt.Sprintf("mchaos seed=%d dev=%d k=%d", cfg.Seed, i, k)
				if err := cl.PutFile(path, []byte(content)); err != nil {
					errCh <- fmt.Errorf("bench: multichaos put %s: %w", path, err)
					return
				}
				expMu.Lock()
				expected[wsOf(i)][path] = content
				expMu.Unlock()
				time.Sleep(cfg.CommitGap)
			}
		}(i, cl)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		return nil, err
	}
	workloadEnd := time.Now()

	crashes.Stop()
	<-phaseDone

	converged := false
	var settleTime time.Duration
	settleDeadline := workloadEnd.Add(cfg.Settle)
	for time.Now().Before(settleDeadline) {
		if soakConverged(clients, wsOf, expected) {
			converged = true
			settleTime = time.Since(workloadEnd)
			break
		}
		time.Sleep(25 * time.Millisecond)
	}

	// Let the fleet drain to the final phase target before reading end state.
	finalWant := cfg.Phases[len(cfg.Phases)-1]
	_ = fleet.WaitInstances(finalWant, 5*time.Second)

	res := &MultiChaosResult{
		Seed:           cfg.Seed,
		Workspaces:     cfg.Workspaces,
		Clients:        cfg.Clients,
		Phases:         cfg.Phases,
		Converged:      converged,
		SettleTime:     settleTime,
		ScheduleStable: scheduleStable,
		FinalInstances: fleet.Instances(),
		FaultCounts:    plan.Counts(),
		RoutedCalls:    reg.CounterValue("omq_router_calls_total", "oid", core.ServiceOID),
		StaleRejects:   reg.CounterValue("omq_router_stale_total", "oid", core.ServiceOID),
		Failovers:      reg.CounterValue("omq_router_failover_total", "oid", core.ServiceOID),
		Fenced:         reg.CounterValue("core_fenced_total"),
	}
	for _, g := range expected {
		res.Commits += len(g)
	}
	if r := fleet.Ring(); r != nil {
		res.FinalRingSize = len(r.Members())
		res.RingEpoch = r.Epoch()
	}
	for _, e := range events.Tail(events.Len()) {
		if e.Kind == obs.EventSupervisorRebalance {
			res.Rebalances++
		}
	}
	res.Crashes, res.MaxRespawn = crashes.result()

	// Final scrape (live instances and client pseudo-sources), then read the
	// fleet-wide trace and heavy-hitter state.
	collector.Collect()
	res.StitchedTraces, res.FailoverTraces = countFailoverTraces(collector)
	if hot := collector.Rollup().HotCommits; len(hot) > 0 {
		res.HotTop = hot[0].Key
		res.HotTopCommits = hot[0].Count
	}

	res.Violations = multiChaosViolations(clients, wsOf, expected, res)
	return res, nil
}

// multiChaosViolations enumerates broken invariants for the report.
func multiChaosViolations(clients []*client.Client, wsOf func(int) string, expected map[string]map[string]string, res *MultiChaosResult) []string {
	v := soakViolations(clients, wsOf, expected, res.Commits, res.Converged, res.ScheduleStable, res.MaxRespawn)
	finalWant := res.Phases[len(res.Phases)-1]
	if res.FinalInstances != finalWant {
		v = append(v, fmt.Sprintf("fleet settled at %d instances, want %d", res.FinalInstances, finalWant))
	}
	if res.FinalRingSize != finalWant {
		v = append(v, fmt.Sprintf("ring settled with %d members, want %d", res.FinalRingSize, finalWant))
	}
	if res.Rebalances == 0 {
		v = append(v, "no supervisor.rebalance events recorded despite scale phases")
	}
	if res.StitchedTraces == 0 {
		v = append(v, "collector holds no stitched traces despite a traced workload")
	}
	if res.Failovers > 0 && res.FailoverTraces == 0 {
		v = append(v, fmt.Sprintf("%d router failovers happened but no stitched trace shows a cause-annotated attempt", res.Failovers))
	}
	if res.HotTop == "" || !strings.HasPrefix(res.HotTop, "mchaos-ws-") {
		v = append(v, fmt.Sprintf("fleet hot-workspace sketch surfaced %q, want an mchaos workspace", res.HotTop))
	}
	sort.Strings(v)
	return v
}

// Print writes the soak summary.
func (r *MultiChaosResult) Print(w io.Writer) {
	fmt.Fprintf(w, "Multi-instance chaos soak — seed %d: %d commits, %d devices over %d workspaces, phases %v, %d crashes\n",
		r.Seed, r.Commits, r.Clients, r.Workspaces, r.Phases, r.Crashes)
	status := "CONVERGED"
	if !r.Converged {
		status = "DIVERGED"
	}
	fmt.Fprintf(w, "%-22s %s (settle %v)\n", "outcome", status, r.SettleTime.Round(time.Millisecond))
	fmt.Fprintf(w, "%-22s %v\n", "max respawn", r.MaxRespawn.Round(time.Millisecond))
	fmt.Fprintf(w, "%-22s %d instances, ring %d members @ epoch %d\n", "final fleet", r.FinalInstances, r.FinalRingSize, r.RingEpoch)
	fmt.Fprintf(w, "%-22s %d rebalances, %d routed calls, %d failovers, %d stale rejects, %d fenced\n",
		"routing", r.Rebalances, r.RoutedCalls, r.Failovers, r.StaleRejects, r.Fenced)
	fmt.Fprintf(w, "%-22s %d stitched traces, %d with failover attempts; hottest workspace %s (%d commits)\n",
		"fleet obs", r.StitchedTraces, r.FailoverTraces, r.HotTop, r.HotTopCommits)
	fmt.Fprintf(w, "%-22s %v\n", "schedule stable", r.ScheduleStable)
	keys := make([]string, 0, len(r.FaultCounts))
	for k := range r.FaultCounts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "%-22s %d\n", "faults "+k, r.FaultCounts[k])
	}
	for _, v := range r.Violations {
		fmt.Fprintf(w, "VIOLATION: %s\n", v)
	}
}

// --- UB1 day-8 peak replay over a routed fleet -----------------------------

// UB1MultiConfig parameterizes the capstone replay: the UB1 day-8 peak hour
// (8,514 commits/min at full scale, §5.3.1), time-compressed, replayed as
// routed commitRequests against a fixed fleet of SyncService instances, with
// the paper's SLA latency bound (d = 450 ms, Table 3) tracked as an SLO.
type UB1MultiConfig struct {
	// Seed fixes the trace shape and the commit schedule.
	Seed int64
	// Instances is the fleet size (default 4).
	Instances int
	// Workspaces spreads commits over this many ring keys (default 24).
	Workspaces int
	// Commits is the number of commitRequests replayed (default 3000).
	Commits int
	// Committers is the number of concurrent load workers (default 16).
	Committers int
	// Duration is the wall time the peak hour is compressed into (default 5s).
	Duration time.Duration
	// SLOTarget is the per-commit latency objective (default 450 ms — the
	// paper's SLA d for the one-minute provisioning policies, Table 3).
	SLOTarget time.Duration
	// SLOObjective is the required fraction within target (default 0.99).
	SLOObjective float64
	// CheckEvery is the Supervisor's enforcement period (default 50 ms).
	CheckEvery time.Duration
}

func (c *UB1MultiConfig) applyDefaults() {
	if c.Instances <= 0 {
		c.Instances = 4
	}
	if c.Workspaces <= 0 {
		c.Workspaces = 24
	}
	if c.Commits <= 0 {
		c.Commits = 3000
	}
	if c.Committers <= 0 {
		c.Committers = 16
	}
	if c.Duration <= 0 {
		c.Duration = 5 * time.Second
	}
	if c.SLOTarget <= 0 {
		c.SLOTarget = 450 * time.Millisecond
	}
	if c.SLOObjective <= 0 || c.SLOObjective > 1 {
		c.SLOObjective = 0.99
	}
	if c.CheckEvery <= 0 {
		c.CheckEvery = 50 * time.Millisecond
	}
}

func ub1MultiWorkspace(i int) string { return fmt.Sprintf("ub1m-ws-%02d", i) }

// workspacesOf names n workspaces owned by user-0.
func workspacesOf(n int, name func(int) string) []metastore.Workspace {
	ws := make([]metastore.Workspace, n)
	for i := range ws {
		ws[i] = metastore.Workspace{ID: name(i), Owner: "user-0"}
	}
	return ws
}

// UB1MultiResult reports the replay's outcome.
type UB1MultiResult struct {
	Seed       int64 `json:"seed"`
	Instances  int   `json:"instances"`
	Workspaces int   `json:"workspaces"`
	Scheduled  int   `json:"scheduled"`
	Acked      int   `json:"acked"`
	Failed     int   `json:"failed"`
	// Lost counts acked commits missing from the metadata store afterwards —
	// must be zero: a routed ack means a durable commit.
	Lost    int           `json:"lost"`
	Elapsed time.Duration `json:"elapsed"`
	// RatePerMinute is the achieved commit throughput, for comparison with
	// the (time-compressed) trace demand.
	RatePerMinute float64 `json:"ratePerMinute"`
	// TracePeakPerMinute is the replayed trace's peak demand at full scale
	// (≈ trace.UB1PeakPerMinute for the day-8 peak hour).
	TracePeakPerMinute float64       `json:"tracePeakPerMinute"`
	P50                time.Duration `json:"p50"`
	P99                time.Duration `json:"p99"`
	SLOTarget          time.Duration `json:"sloTarget"`
	SLOObjective       float64       `json:"sloObjective"`
	Attainment         float64       `json:"attainment"`
	BurnRate           float64       `json:"burnRate"`
	SLOMet             bool          `json:"sloMet"`
	RingSize           int           `json:"ringSize"`
	RingEpoch          uint64        `json:"ringEpoch"`
	RoutedCalls        uint64        `json:"routedCalls"`
	Failovers          uint64        `json:"failovers"`
	StaleRejects       uint64        `json:"staleRejects"`
}

// RunUB1Multi replays the UB1 day-8 peak hour, time-compressed into
// cfg.Duration, as routed commitRequests over a fleet of cfg.Instances
// SyncService instances, and verifies SLO attainment plus that every acked
// commit is durable in the metadata store.
func RunUB1Multi(cfg UB1MultiConfig) (*UB1MultiResult, error) {
	cfg.applyDefaults()

	// Schedule: sample commit arrival offsets from the day-8 peak hour's
	// minute-level rate curve, compressed into cfg.Duration. Deterministic
	// from the seed.
	_, day8 := trace.UB1WeekAndDay8(cfg.Seed)
	hour := day8.HourSlice(13) // the diurnal peak lands at ~13:00
	weights := hour.Rates
	if len(weights) == 0 {
		return nil, fmt.Errorf("bench: empty UB1 peak-hour trace")
	}
	cum := make([]float64, len(weights))
	total := 0.0
	for i, w := range weights {
		total += w
		cum[i] = total
	}
	rnd := rand.New(rand.NewSource(cfg.Seed))
	slotDur := cfg.Duration / time.Duration(len(weights))
	type ub1Job struct {
		at  time.Duration
		ws  int
		idx int
	}
	jobs := make([]ub1Job, cfg.Commits)
	for i := range jobs {
		u := rnd.Float64() * total
		slot := sort.SearchFloat64s(cum, u)
		if slot >= len(weights) {
			slot = len(weights) - 1
		}
		at := time.Duration(slot)*slotDur + time.Duration(rnd.Float64()*float64(slotDur))
		jobs[i] = ub1Job{at: at, ws: rnd.Intn(cfg.Workspaces), idx: i}
	}
	sort.Slice(jobs, func(a, b int) bool { return jobs[a].at < jobs[b].at })

	// Stack: healthy plumbing — the replay measures routed capacity, not
	// fault repair (the chaos soak covers that).
	reg := obs.NewRegistry()
	fleet, err := deploy.Start(deploy.Config{
		Workspaces: workspacesOf(cfg.Workspaces, ub1MultiWorkspace),
		Registry:   reg,
		Supervisor: &omq.SupervisorConfig{
			CheckEvery:      cfg.CheckEvery,
			Provisioner:     omq.FixedProvisioner(cfg.Instances),
			MaxInstances:    cfg.Instances,
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
	meta := fleet.Meta

	loadBroker, err := omq.NewBroker(fleet.MQ, omq.WithID("40-load"), omq.WithRegistry(reg))
	if err != nil {
		return nil, err
	}
	defer loadBroker.Close()
	router := omq.NewRouter(loadBroker, omq.RouterConfig{
		OID:         core.ServiceOID,
		Timeout:     600 * time.Millisecond,
		Attempts:    8,
		BackoffBase: 5 * time.Millisecond,
		BackoffMax:  100 * time.Millisecond,
	})
	router.Refresh()

	slo := obs.NewSLOTracker(reg, obs.SLOConfig{
		Name:      "ub1_multi_commit",
		Target:    cfg.SLOTarget,
		Objective: cfg.SLOObjective,
	})

	// Replay: committers pull scheduled jobs and fire each at its offset.
	// Latency is measured from the scheduled arrival, not the send, so
	// backlog shows up as SLO misses instead of being silently absorbed.
	jobCh := make(chan ub1Job, len(jobs))
	for _, j := range jobs {
		jobCh <- j
	}
	close(jobCh)
	var (
		mu     sync.Mutex
		lats   []time.Duration
		failed int
		acked  = make(map[string][]string) // workspace -> acked paths
	)
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < cfg.Committers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for job := range jobCh {
				if d := time.Until(start.Add(job.at)); d > 0 {
					time.Sleep(d)
				}
				ws := ub1MultiWorkspace(job.ws)
				path := fmt.Sprintf("peak/f%05d.txt", job.idx)
				req := core.CommitRequest{
					Workspace: ws,
					DeviceID:  "load-gen",
					Items: []metastore.ItemVersion{{
						Workspace: ws,
						ItemID:    ws + ":" + path,
						Path:      path,
						Version:   1,
						Status:    metastore.Added,
						Size:      1,
						DeviceID:  "load-gen",
					}},
				}
				err := router.Call(ws, "CommitRequest", nil, req)
				lat := time.Since(start.Add(job.at))
				slo.Observe(lat)
				mu.Lock()
				lats = append(lats, lat)
				if err != nil {
					failed++
				} else {
					acked[ws] = append(acked[ws], path)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)

	// Verification: every acked commit must be present in the metadata
	// store — a routed ack is a durability promise.
	lost := 0
	ackedTotal := 0
	for ws, paths := range acked {
		state, err := meta.State(ws)
		if err != nil {
			return nil, err
		}
		have := make(map[string]bool, len(state))
		for _, item := range state {
			have[item.Path] = true
		}
		for _, p := range paths {
			ackedTotal++
			if !have[p] {
				lost++
			}
		}
	}

	sort.Slice(lats, func(a, b int) bool { return lats[a] < lats[b] })
	pct := func(q float64) time.Duration {
		if len(lats) == 0 {
			return 0
		}
		i := int(q * float64(len(lats)-1))
		return lats[i]
	}
	res := &UB1MultiResult{
		Seed:               cfg.Seed,
		Instances:          cfg.Instances,
		Workspaces:         cfg.Workspaces,
		Scheduled:          cfg.Commits,
		Acked:              ackedTotal,
		Failed:             failed,
		Lost:               lost,
		Elapsed:            elapsed,
		RatePerMinute:      float64(ackedTotal) / elapsed.Minutes(),
		TracePeakPerMinute: hour.Peak() * 60,
		P50:                pct(0.50),
		P99:                pct(0.99),
		SLOTarget:          cfg.SLOTarget,
		SLOObjective:       cfg.SLOObjective,
		Attainment:         slo.Attainment(),
		BurnRate:           slo.BurnRate(),
		RoutedCalls:        reg.CounterValue("omq_router_calls_total", "oid", core.ServiceOID),
		Failovers:          reg.CounterValue("omq_router_failover_total", "oid", core.ServiceOID),
		StaleRejects:       reg.CounterValue("omq_router_stale_total", "oid", core.ServiceOID),
	}
	res.SLOMet = res.Attainment >= cfg.SLOObjective
	if r := fleet.Ring(); r != nil {
		res.RingSize = len(r.Members())
		res.RingEpoch = r.Epoch()
	}
	return res, nil
}

// Print writes the replay summary.
func (r *UB1MultiResult) Print(w io.Writer) {
	fmt.Fprintf(w, "UB1 day-8 peak replay — seed %d: %d commits over %d workspaces on %d routed instances\n",
		r.Seed, r.Scheduled, r.Workspaces, r.Instances)
	fmt.Fprintf(w, "%-22s %d acked, %d failed, %d lost (elapsed %v)\n", "outcome", r.Acked, r.Failed, r.Lost, r.Elapsed.Round(time.Millisecond))
	fmt.Fprintf(w, "%-22s %.0f commits/min achieved (trace peak %.0f/min at full scale)\n", "throughput", r.RatePerMinute, r.TracePeakPerMinute)
	fmt.Fprintf(w, "%-22s p50 %v, p99 %v\n", "latency", r.P50.Round(time.Millisecond), r.P99.Round(time.Millisecond))
	status := "MET"
	if !r.SLOMet {
		status = "MISSED"
	}
	fmt.Fprintf(w, "%-22s %.4f attainment vs %.2f objective at d=%v — %s (burn %.2f)\n",
		"slo", r.Attainment, r.SLOObjective, r.SLOTarget, status, r.BurnRate)
	fmt.Fprintf(w, "%-22s ring %d members @ epoch %d; %d routed calls, %d failovers, %d stale rejects\n",
		"routing", r.RingSize, r.RingEpoch, r.RoutedCalls, r.Failovers, r.StaleRejects)
}

package bench

import (
	"bytes"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"

	"stacksync/internal/chunker"
	"stacksync/internal/client"
	"stacksync/internal/deploy"
	"stacksync/internal/faults"
	"stacksync/internal/metastore"
	"stacksync/internal/mq"
	"stacksync/internal/objstore"
	"stacksync/internal/obs"
	"stacksync/internal/omq"
)

// ChaosConfig parameterizes the chaos soak: a full stack (broker, metadata
// store, storage, Supervisor-respawned SyncService, N client devices) runs a
// write workload while the seeded fault plan drops/duplicates/delays
// messages, injects storage errors and outages, aborts metadata
// transactions, and crashes the server object on a schedule. Afterwards the
// run must converge: every proposed commit present on every device with
// identical content, no spurious conflict copies, crash respawn within the
// paper's ~1 s (§5.3.4).
type ChaosConfig struct {
	// Seed fixes the entire fault schedule; same seed, same chaos.
	Seed int64
	// Clients is the number of devices writing concurrently (default 3).
	Clients int
	// CommitsPerClient is the number of files each device writes (default 20).
	CommitsPerClient int
	// CommitGap is the idle time between a device's commits (default 10 ms).
	CommitGap time.Duration
	// CrashEvery is the mean period of the server-object crash schedule
	// (default 400 ms; jittered ±50% deterministically from the seed). Keep
	// it shorter than the workload or no crash lands inside it.
	CrashEvery time.Duration
	// CheckEvery is the Supervisor's health-check period (default 100 ms).
	CheckEvery time.Duration
	// Settle caps how long the run may take to converge after the workload
	// stops and fault injection quiesces (default 30 s).
	Settle time.Duration
}

func (c *ChaosConfig) applyDefaults() {
	if c.Clients <= 0 {
		c.Clients = 3
	}
	if c.CommitsPerClient <= 0 {
		c.CommitsPerClient = 20
	}
	if c.CommitGap <= 0 {
		c.CommitGap = 10 * time.Millisecond
	}
	if c.CrashEvery <= 0 {
		c.CrashEvery = 400 * time.Millisecond
	}
	if c.CheckEvery <= 0 {
		c.CheckEvery = 100 * time.Millisecond
	}
	if c.Settle <= 0 {
		c.Settle = 30 * time.Second
	}
}

// chaosPlan builds the fault plan for a config; pulled out so the schedule
// can be rebuilt and compared for determinism.
func chaosPlan(cfg ChaosConfig, reg *obs.Registry) *faults.Plan {
	horizon := time.Duration(cfg.CommitsPerClient) * (cfg.CommitGap + 20*time.Millisecond)
	if horizon < time.Second {
		horizon = time.Second
	}
	return faults.NewPlan(faults.Config{
		Seed:     cfg.Seed,
		Registry: reg,
		Sites: map[string]faults.SiteConfig{
			// Client-side publishes: commit requests vanish, duplicate, lag.
			"mq.client": {DropP: 0.05, DupP: 0.05, DelayP: 0.10, MaxDelay: 20 * time.Millisecond},
			// Notification pushes: the lossiest hop — resync must repair.
			deploy.FaultSiteNotify: {DropP: 0.10, DupP: 0.05, DelayP: 0.10, MaxDelay: 20 * time.Millisecond},
			// Storage: transient errors, latency spikes, plus full outages.
			"objstore": {
				ErrorP: 0.10, DelayP: 0.10, MaxDelay: 10 * time.Millisecond,
				Outages: faults.RandomOutages(cfg.Seed, "objstore", 2, 300*time.Millisecond, horizon),
			},
			// Metadata transactions: sporadic aborts the pipeline must retry.
			deploy.FaultSiteMeta: {AbortP: 0.15},
		},
	})
}

// ChaosResult reports the soak's outcome.
type ChaosResult struct {
	Seed       int64         `json:"seed"`
	Commits    int           `json:"commits"` // total files proposed
	Clients    int           `json:"clients"`
	Crashes    int           `json:"crashes"` // server-object kills injected
	MaxRespawn time.Duration `json:"maxRespawn"`
	SettleTime time.Duration `json:"settleTime"` // workload end -> convergence
	Converged  bool          `json:"converged"`
	// ScheduleStable is true when rebuilding the plan from the same seed
	// yields a byte-identical schedule description.
	ScheduleStable bool              `json:"scheduleStable"`
	FaultCounts    map[string]uint64 `json:"faultCounts"` // site/kind -> fired
	// Violations lists every broken invariant (empty on a clean run).
	Violations []string `json:"violations,omitempty"`
}

// RunChaos executes the chaos soak and checks convergence.
func RunChaos(cfg ChaosConfig) (*ChaosResult, error) {
	cfg.applyDefaults()
	// One registry for the whole run: fault counters, client series and the
	// brokers' queue gauges land on the same introspection surface.
	reg := obs.NewRegistry()
	plan := chaosPlan(cfg, reg)

	// Determinism contract: same seed and config, byte-identical schedule.
	scheduleStable := bytes.Equal(
		[]byte(plan.Describe(512)),
		[]byte(chaosPlan(cfg, nil).Describe(512)),
	)

	const ws = "chaos-ws"
	fleet, err := deploy.Start(deploy.Config{
		Workspaces: []metastore.Workspace{{ID: ws, Owner: "user-0"}},
		Registry:   reg,
		// Notification pushes get lost and metadata transactions abort; the
		// RemoteBroker/Supervisor plumbing itself stays healthy.
		Faults: plan,
		Supervisor: &omq.SupervisorConfig{
			CheckEvery:  cfg.CheckEvery,
			Provisioner: omq.FixedProvisioner(1),
		},
	})
	if err != nil {
		return nil, err
	}
	defer fleet.Close()
	faultyStore := objstore.NewFaulty(fleet.Chunks, plan, "objstore", nil)

	// Client devices, each on its own broker over the faulty client MQ view.
	clients := make([]*client.Client, cfg.Clients)
	for i := range clients {
		cb, err := omq.NewBroker(mq.NewFaulty(fleet.MQ, plan, "mq.client", nil),
			omq.WithID(fmt.Sprintf("30-client-%d", i)))
		if err != nil {
			return nil, err
		}
		defer cb.Close()
		cl, err := client.NewClient(client.Config{
			UserID:      "user-0",
			DeviceID:    fmt.Sprintf("dev-%d", i),
			WorkspaceID: ws,
			Broker:      cb,
			Storage:     faultyStore,
			Registry:    reg,
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

	// Anchor outage windows at workload start; launch the crash schedule.
	start := time.Now()
	plan.Begin(start)
	crashes := startCrashes(fleet, start, faults.CrashSchedule(cfg.Seed, cfg.CrashEvery, 0.5, cfg.Settle),
		func() int { return 1 })
	defer crashes.Stop()

	// Workload: each device writes its own distinct paths, so any
	// "conflicted copy" in the end state is spurious by construction.
	wsOf := func(int) string { return ws }
	expected := map[string]map[string]string{ws: {}} // workspace -> path -> content
	var expMu sync.Mutex
	var wg sync.WaitGroup
	errCh := make(chan error, cfg.Clients)
	for i, cl := range clients {
		wg.Add(1)
		go func(i int, cl *client.Client) {
			defer wg.Done()
			for k := 0; k < cfg.CommitsPerClient; k++ {
				path := fmt.Sprintf("dev%d/file-%04d.txt", i, k)
				content := fmt.Sprintf("chaos seed=%d dev=%d k=%d", cfg.Seed, i, k)
				expMu.Lock()
				expected[ws][path] = content
				expMu.Unlock()
				if err := cl.PutFile(path, []byte(content)); err != nil {
					errCh <- fmt.Errorf("bench: chaos put %s: %w", path, err)
					return
				}
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

	// Stop crashing; let the repair machinery (redelivery, retransmission,
	// resync, upload flushing) settle the system.
	crashes.Stop()

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

	res := &ChaosResult{
		Seed:           cfg.Seed,
		Commits:        len(expected[ws]),
		Clients:        cfg.Clients,
		Converged:      converged,
		SettleTime:     settleTime,
		ScheduleStable: scheduleStable,
		FaultCounts:    plan.Counts(),
	}
	res.Crashes, res.MaxRespawn = crashes.result()
	res.Violations = soakViolations(clients, wsOf, expected, res.Commits, converged, scheduleStable, res.MaxRespawn)
	sort.Strings(res.Violations)
	return res, nil
}

// soakConverged reports whether every client holds exactly its workspace's
// expected state (path -> content) with no queued uploads left.
func soakConverged(clients []*client.Client, wsOf func(int) string, expected map[string]map[string]string) bool {
	for i, cl := range clients {
		if client.UploadQueueDepth(cl.Registry(), fmt.Sprintf("dev-%d", i)) > 0 {
			return false
		}
		exp := expected[wsOf(i)]
		if len(cl.Paths()) != len(exp) {
			return false
		}
		for path, want := range exp {
			got, ok := cl.FileContent(path)
			if !ok || string(got) != want {
				return false
			}
		}
	}
	return true
}

// soakViolations enumerates the invariants both chaos soaks share: every
// device converged on its workspace's acked commits with no spurious
// conflict copy, a seed-reproducible schedule, respawns within ~1 s.
func soakViolations(clients []*client.Client, wsOf func(int) string, expected map[string]map[string]string,
	commits int, converged, scheduleStable bool, maxRespawn time.Duration) []string {
	var v []string
	if !converged {
		v = append(v, fmt.Sprintf("clients did not converge within the settle window (%d commits expected)", commits))
	}
	for i, cl := range clients {
		exp := expected[wsOf(i)]
		for _, p := range cl.Paths() {
			if strings.Contains(p, "conflicted copy") {
				v = append(v, fmt.Sprintf("dev-%d holds spurious conflict copy %q", i, p))
			}
			if _, ok := exp[p]; !ok {
				v = append(v, fmt.Sprintf("dev-%d holds unexpected path %q", i, p))
			}
		}
		for path := range exp {
			if _, ok := cl.FileContent(path); !ok {
				v = append(v, fmt.Sprintf("dev-%d lost acked commit %q", i, path))
			}
		}
	}
	if !scheduleStable {
		v = append(v, "fault schedule not reproducible from seed")
	}
	if maxRespawn > time.Second {
		v = append(v, fmt.Sprintf("crash respawn took %v (> 1s)", maxRespawn))
	}
	return v
}

// Print writes the soak summary.
func (r *ChaosResult) Print(w io.Writer) {
	fmt.Fprintf(w, "Chaos soak — seed %d: %d commits across %d devices, %d crashes\n",
		r.Seed, r.Commits, r.Clients, r.Crashes)
	status := "CONVERGED"
	if !r.Converged {
		status = "DIVERGED"
	}
	fmt.Fprintf(w, "%-22s %s (settle %v)\n", "outcome", status, r.SettleTime.Round(time.Millisecond))
	fmt.Fprintf(w, "%-22s %v\n", "max respawn", r.MaxRespawn.Round(time.Millisecond))
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

// crashInjector kills one SyncService instance at each scheduled offset and
// records every down interval: from the kill until the Supervisor's
// replacement serves again.
type crashInjector struct {
	mu    sync.Mutex
	downs []struct{ from, to time.Time }
	stop  chan struct{}
	done  chan struct{}
	once  sync.Once
}

// startCrashes runs the injector over fleet, crashing at start+offset for
// each offset; want is the instance count a respawn restores.
func startCrashes(fleet *deploy.Fleet, start time.Time, offsets []time.Duration, want func() int) *crashInjector {
	c := &crashInjector{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(c.done)
		for _, at := range offsets {
			select {
			case <-c.stop:
				return
			case <-time.After(time.Until(start.Add(at))):
			}
			if fleet.Kill() == "" {
				continue
			}
			// Open the interval at once, so a commit completing while the
			// service is still down classifies as crashed.
			c.mu.Lock()
			c.downs = append(c.downs, struct{ from, to time.Time }{from: time.Now()})
			idx := len(c.downs) - 1
			c.mu.Unlock()
			for fleet.Instances() < want() {
				select {
				case <-c.stop:
					return
				case <-time.After(time.Millisecond):
				}
			}
			c.mu.Lock()
			c.downs[idx].to = time.Now()
			c.mu.Unlock()
		}
	}()
	return c
}

// Stop ends the schedule and waits for the injector; it is idempotent.
func (c *crashInjector) Stop() {
	c.once.Do(func() { close(c.stop) })
	<-c.done
}

// result returns how many kills landed and the longest completed respawn.
func (c *crashInjector) result() (crashes int, maxRespawn time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, d := range c.downs {
		if !d.to.IsZero() && d.to.Sub(d.from) > maxRespawn {
			maxRespawn = d.to.Sub(d.from)
		}
	}
	return len(c.downs), maxRespawn
}

// overlaps reports whether [from, to] overlaps a down interval; one still
// open counts as down until now.
func (c *crashInjector) overlaps(from, to time.Time) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, d := range c.downs {
		if (d.to.IsZero() || from.Before(d.to)) && to.After(d.from) {
			return true
		}
	}
	return false
}

package bench

import (
	"context"
	"fmt"
	"io"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"stacksync/internal/client"
	"stacksync/internal/core"
	"stacksync/internal/deploy"
	"stacksync/internal/faults"
	"stacksync/internal/metastore"
	"stacksync/internal/mq"
	"stacksync/internal/objstore"
	"stacksync/internal/obs"
	"stacksync/internal/omq"
)

// SoakConfig parameterizes the chaos soak: a supervised SyncService fleet is
// driven through the phase schedule soakPhases while a seeded fault plan
// drops, duplicates and delays messages, fails storage, aborts metadata
// transactions and kills instances. Every device runs stacksync-client's
// configuration: it sets only its ids, broker, storage, registry and tracer,
// and everything else is the shipped default (the shared request queue,
// async commits, 1 s retransmission, no periodic resync). Afterwards every
// device must converge on every acked commit, respawns must take at most the
// paper's ~1 s (§5.3.4), and a traced commit made after a closing kill must
// leave a complete stitched trace.
type SoakConfig struct {
	// Seed fixes the fault plan and the kill schedule; same seed, same chaos.
	Seed int64
	// Clients is the number of devices writing concurrently (default 6);
	// device i syncs workspace i mod soakWorkspaces.
	Clients int
	// CommitsPerClient is the number of files each device writes (default 40).
	CommitsPerClient int
	// CommitGap is the idle time between a device's commits (default 25 ms).
	CommitGap time.Duration
	// PhaseEvery is the dwell between phase switches (default 300 ms).
	PhaseEvery time.Duration
	// CrashEvery is the mean period of the instance-kill schedule (default
	// 400 ms, jittered ±50% from the seed). The workload must outlast the
	// first kill and both phase switches, or the run reports a violation.
	CrashEvery time.Duration
}

func (c *SoakConfig) applyDefaults() {
	if c.Clients <= 0 {
		c.Clients = 6
	}
	if c.CommitsPerClient <= 0 {
		c.CommitsPerClient = 40
	}
	if c.CommitGap <= 0 {
		c.CommitGap = 25 * time.Millisecond
	}
	if c.PhaseEvery <= 0 {
		c.PhaseEvery = 300 * time.Millisecond
	}
	if c.CrashEvery <= 0 {
		c.CrashEvery = 400 * time.Millisecond
	}
}

const (
	// soakWorkspaces is the number of device workspaces; devices i and i+3
	// share one, so their commits race.
	soakWorkspaces = 3
	// soakSettle caps the wait for convergence after the workload.
	soakSettle = 30 * time.Second
)

// soakPhases is the fleet-size schedule: grow under load, then drain under
// load.
var soakPhases = []int{1, 4, 2}

// soakWorkspace names workspace i; workspace soakWorkspaces holds no device
// and is the closing probe's target.
func soakWorkspace(i int) string { return fmt.Sprintf("soak-ws-%d", i) }

// soakPlan builds the fault plan; pulled out so the schedule can be rebuilt
// and compared for determinism.
func soakPlan(cfg SoakConfig, reg *obs.Registry) *faults.Plan {
	horizon := max(time.Duration(cfg.CommitsPerClient)*(cfg.CommitGap+40*time.Millisecond), time.Second)
	return faults.NewPlan(faults.Config{
		Seed:     cfg.Seed,
		Registry: reg,
		Sites: map[string]faults.SiteConfig{
			// Client publishes: commit requests vanish, duplicate, lag.
			"mq.client": {DropP: 0.05, DupP: 0.05, DelayP: 0.10, MaxDelay: 20 * time.Millisecond},
			// Storage: transient errors, latency spikes, full outages.
			"objstore": {
				ErrorP: 0.10, DelayP: 0.10, MaxDelay: 10 * time.Millisecond,
				Outages: faults.RandomOutages(cfg.Seed, "objstore", 2, 300*time.Millisecond, horizon),
			},
			// Notification pushes: the lossiest hop. A dropped publish is
			// lost for every device at once, so the writer's retransmit,
			// which the service re-acks and re-publishes, repairs it.
			deploy.FaultSiteNotify: {DropP: 0.10, DupP: 0.05, DelayP: 0.10, MaxDelay: 20 * time.Millisecond},
			// Metadata transactions: sporadic aborts the pipeline must retry.
			deploy.FaultSiteMeta: {AbortP: 0.15},
		},
	})
}

// SoakResult reports the soak's outcome.
type SoakResult struct {
	Seed    int64
	Clients int
	Commits int // acked commits over all devices
	// PhaseAt is when each phase switch after the first was applied,
	// relative to workload start; Window is the workload's length.
	PhaseAt    []time.Duration
	Window     time.Duration
	Crashes    int // kills landed inside the workload window
	MaxRespawn time.Duration
	SettleTime time.Duration // workload end -> convergence
	Converged  bool
	// ScheduleStable is true when rebuilding the plan from the same seed
	// yields a byte-identical schedule description.
	ScheduleStable bool
	// Fleet size after the final phase and the probe, and the number of
	// supervisor.scale events.
	FinalInstances, Scales int
	// FaultCounts maps site/kind to the injections fired.
	FaultCounts map[string]uint64
	// Fleet observability: stitched traces and the fleet-merged hottest
	// workspace by commits.
	StitchedTraces int
	HotTop         string
	HotTopCommits  uint64
	// The closing probe: the instance it killed and the anatomy of the
	// stitched trace of the commit it made afterwards. ProbePathInstances
	// counts distinct instances on the trace's critical path; >= 2 means it
	// crosses the process boundary.
	ProbeKilled        string
	ProbeTrace         string
	ProbeSpans         int
	ProbeInstances     int
	ProbePathInstances int
	ProbePartial       bool
	// Violations lists every broken invariant (empty on a clean run).
	Violations []string
}

// RunSoak executes the chaos soak and checks every invariant.
func RunSoak(cfg SoakConfig) (*SoakResult, error) {
	cfg.applyDefaults()
	reg := obs.NewRegistry()
	events := obs.NewEventLog(4096)
	plan := soakPlan(cfg, reg)
	res := &SoakResult{Seed: cfg.Seed, Clients: cfg.Clients,
		ScheduleStable: plan.Describe(512) == soakPlan(cfg, nil).Describe(512)}

	// The phase driver moves an atomic target the provisioner reads.
	var target atomic.Int64
	target.Store(int64(soakPhases[0]))
	fleet, err := deploy.Start(deploy.Config{
		Workspaces: workspacesOf(soakWorkspaces+1, soakWorkspace),
		Registry:   reg,
		Events:     events,
		Faults:     plan,
		// Every spawned instance exports its own obs into one Collector,
		// polled during the run so a kill loses only the spans buffered
		// since the last scrape.
		FleetObs:     true,
		CollectEvery: 50 * time.Millisecond,
		Supervisor: &omq.SupervisorConfig{
			CheckEvery: 60 * time.Millisecond,
			Provisioner: omq.ProvisionerFunc(func(time.Time, omq.ObjectInfo) int {
				return int(target.Load())
			}),
			MaxInstances: slices.Max(soakPhases) + 2,
		},
	})
	if err != nil {
		return nil, err
	}
	defer fleet.Close()
	if err := fleet.WaitInstances(soakPhases[0], 10*time.Second); err != nil {
		return nil, err
	}

	wsOf := func(i int) string { return soakWorkspace(i % soakWorkspaces) }
	clients := make([]*client.Client, cfg.Clients)
	for i := range clients {
		// Each device traces into its own sink, a collector pseudo-source,
		// so a commit's trace stitches from the device into the instance
		// that served it.
		id := fmt.Sprintf("30-client-%d", i)
		sink := obs.NewSpanSink(0)
		tracer := obs.NewTracer(obs.WithSink(sink), obs.WithInstance(id))
		fleet.Collector.Register(obs.Source{InstanceID: id, Sink: sink})
		cb, err := omq.NewBroker(mq.NewFaulty(fleet.MQ, plan, "mq.client", nil),
			omq.WithID(id), omq.WithRegistry(reg), omq.WithTracer(tracer))
		if err != nil {
			return nil, err
		}
		defer cb.Close()
		cl, err := client.NewClient(client.Config{
			UserID: "user-0", DeviceID: fmt.Sprintf("dev-%d", i), WorkspaceID: wsOf(i),
			Broker:   cb,
			Storage:  objstore.NewFaulty(fleet.Chunks, plan, "objstore", nil),
			Registry: reg,
			Tracer:   tracer,
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

	// Anchor outage windows at workload start; walk the phases and run the
	// kill schedule while the workload runs. The phase driver is never cut
	// short, so the end-state checks see the final phase.
	start := time.Now()
	plan.Begin(start)
	phaseDone := make(chan struct{})
	go func() {
		defer close(phaseDone)
		for _, ph := range soakPhases[1:] {
			time.Sleep(cfg.PhaseEvery)
			target.Store(int64(ph))
			res.PhaseAt = append(res.PhaseAt, time.Since(start).Round(time.Millisecond))
		}
	}()
	crashes := startCrashes(fleet, start, faults.CrashSchedule(cfg.Seed, cfg.CrashEvery, 0.5, soakSettle),
		func() int { return int(target.Load()) })
	defer crashes.Stop()

	// Workload: each device writes its own distinct paths, so any conflict
	// copy in the end state is spurious by construction. A commit counts
	// as acked once PutFile returns.
	expected := make(map[string]map[string]string) // workspace -> path -> content
	for i := 0; i < soakWorkspaces; i++ {
		expected[soakWorkspace(i)] = make(map[string]string)
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
				content := fmt.Sprintf("soak seed=%d dev=%d k=%d", cfg.Seed, i, k)
				if err := cl.PutFile(path, []byte(content)); err != nil {
					errCh <- fmt.Errorf("bench: soak put %s: %w", path, err)
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
	res.Window = workloadEnd.Sub(start).Round(time.Millisecond)

	// Stop killing; let redelivery, retransmission and upload flushing
	// settle the system.
	crashes.Stop()
	<-phaseDone
	for _, g := range expected {
		res.Commits += len(g)
	}
	for time.Now().Before(workloadEnd.Add(soakSettle)) {
		if soakConverged(clients, wsOf, expected) {
			res.Converged, res.SettleTime = true, time.Since(workloadEnd)
			break
		}
		time.Sleep(25 * time.Millisecond)
	}

	final := soakPhases[len(soakPhases)-1]
	_ = fleet.WaitInstances(final, 5*time.Second)
	probeErr := res.probeAfterKill(fleet, soakWorkspace(soakWorkspaces), final)
	_ = fleet.WaitInstances(final, 5*time.Second)

	res.FinalInstances = fleet.Instances()
	for _, e := range events.Tail(events.Len()) {
		if e.Kind == obs.EventSupervisorScale {
			res.Scales++
		}
	}
	res.FaultCounts = plan.Counts()
	killed, maxRespawn := crashes.result()
	res.Crashes, res.MaxRespawn = len(killed), maxRespawn

	// Final scrape, then the fleet-wide trace and heavy-hitter state.
	fleet.Collector.Collect()
	rollup := fleet.Collector.Rollup()
	res.StitchedTraces = len(fleet.Collector.TraceIDs())
	if len(rollup.HotCommits) > 0 {
		res.HotTop, res.HotTopCommits = rollup.HotCommits[0].Key, rollup.HotCommits[0].Count
	}

	v := deviceViolations(clients, wsOf, expected)
	if probeErr != nil {
		v = append(v, "probe: "+probeErr.Error())
	}
	v = append(v, res.fleetViolations(append(killed, res.ProbeKilled), rollup, expected)...)
	sort.Strings(v)
	res.Violations = v
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
			if got, ok := cl.FileContent(path); !ok || string(got) != want {
				return false
			}
		}
	}
	return true
}

// deviceViolations checks each device's end state against its workspace's
// acked commits.
func deviceViolations(clients []*client.Client, wsOf func(int) string, expected map[string]map[string]string) []string {
	var v []string
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
	return v
}

// fleetViolations checks the run as a whole: the soak exercised what it
// claims (kills and both phase switches inside the workload, every fault
// site fired), the fleet repaired itself, and the collector tells kills from
// drains and surfaces a hottest workspace.
func (r *SoakResult) fleetViolations(killed []string, rollup obs.FleetRollup, expected map[string]map[string]string) []string {
	var v []string
	if !r.Converged {
		v = append(v, fmt.Sprintf("devices did not converge within %v (%d acked commits)", soakSettle, r.Commits))
	}
	if !r.ScheduleStable {
		v = append(v, "fault schedule not reproducible from seed")
	}
	if r.Crashes == 0 {
		v = append(v, fmt.Sprintf("no crash landed inside the %v workload window", r.Window))
	}
	if r.MaxRespawn > time.Second {
		v = append(v, fmt.Sprintf("crash respawn took %v (> 1s)", r.MaxRespawn))
	}
	for i, at := range r.PhaseAt {
		if at > r.Window {
			v = append(v, fmt.Sprintf("phase %d applied at %v, after the workload ended at %v", soakPhases[i+1], at, r.Window))
		}
	}
	for _, site := range []string{"mq.client", "objstore", deploy.FaultSiteNotify, deploy.FaultSiteMeta} {
		fired := false
		for k := range r.FaultCounts {
			fired = fired || strings.HasPrefix(k, site+"/")
		}
		if !fired {
			v = append(v, fmt.Sprintf("fault site %s never fired", site))
		}
	}
	final := soakPhases[len(soakPhases)-1]
	if r.FinalInstances != final {
		v = append(v, fmt.Sprintf("fleet settled at %d instances, want %d", r.FinalInstances, final))
	}
	if r.Scales == 0 {
		v = append(v, "no supervisor.scale events recorded despite scale phases")
	}
	if r.StitchedTraces == 0 {
		v = append(v, "collector holds no stitched traces despite a traced workload")
	}

	// Kills are never clean; the 4 → 2 phase drains instances cleanly.
	drainedClean := false
	for _, inst := range rollup.Instances {
		if !inst.Alive && inst.CleanExit {
			if slices.Contains(killed, inst.InstanceID) {
				v = append(v, fmt.Sprintf("killed instance %s reported as a clean drain", inst.InstanceID))
			} else {
				drainedClean = true
			}
		}
	}
	if !drainedClean {
		v = append(v, "no instance recorded as a clean drain after the scale-in")
	}

	// The probe's commit after the kill stitched from the probe into a
	// serving instance, completely.
	if r.ProbeInstances < 2 {
		v = append(v, fmt.Sprintf("probe: stitched trace spans %d instance(s), want >= 2", r.ProbeInstances))
	}
	if r.ProbePathInstances < 2 {
		v = append(v, fmt.Sprintf("probe: critical path touches %d instance(s), want >= 2", r.ProbePathInstances))
	}
	if r.ProbePartial {
		v = append(v, "probe: trace of the commit after the kill marked partial")
	}

	most := 0
	for _, g := range expected {
		most = max(most, len(g))
	}
	if g, ok := expected[r.HotTop]; !ok || len(g) != most {
		v = append(v, fmt.Sprintf("fleet hot-commit top is %q, want a workspace with the most acked commits (%d)", r.HotTop, most))
	}
	return v
}

// probeAfterKill closes the soak: it kills one instance, waits for the
// Supervisor's respawn, then a clean traced client that joins the collector
// makes one sync commit on the shared queue. The commit's stitched trace
// must be in the collector, complete, and on a critical path that crosses
// from the client into the instance that served it.
func (r *SoakResult) probeAfterKill(fleet *deploy.Fleet, ws string, want int) error {
	sink := obs.NewSpanSink(0)
	tracer := obs.NewTracer(obs.WithSink(sink), obs.WithInstance("probe"))
	b, err := omq.NewBroker(fleet.MQ, omq.WithID("40-probe"), omq.WithTracer(tracer))
	if err != nil {
		return err
	}
	defer b.Close()
	fleet.Collector.Register(obs.Source{InstanceID: "probe", Sink: sink})
	if r.ProbeKilled = fleet.Kill(); r.ProbeKilled == "" {
		return fmt.Errorf("no running instance to kill")
	}
	deadline := time.Now().Add(10 * time.Second)
	for fleet.Instances() < want {
		if time.Now().After(deadline) {
			return fmt.Errorf("fleet never recovered from the kill of %s", r.ProbeKilled)
		}
		time.Sleep(5 * time.Millisecond)
	}

	root := tracer.StartRoot("client.commit")
	const path = "probe/after-kill.txt"
	service := b.Lookup(core.ServiceOID, omq.WithTimeout(400*time.Millisecond),
		omq.WithRetries(14), omq.WithBackoff(15*time.Millisecond, 250*time.Millisecond))
	err = service.CallCtx(obs.ContextWith(context.Background(), root.Context()), "CommitRequest", nil,
		core.CommitRequest{Workspace: ws, DeviceID: "probe", Items: []metastore.ItemVersion{{
			Workspace: ws, ItemID: ws + ":" + path, Path: path,
			Version: 1, Status: metastore.Added, Size: 2048, DeviceID: "probe",
		}}})
	root.End()
	if err != nil {
		return fmt.Errorf("commit after the kill: %w", err)
	}
	r.ProbeTrace = root.Context().TraceID
	fleet.Collector.Collect()
	st, ok := fleet.Collector.Trace(r.ProbeTrace)
	if !ok {
		return fmt.Errorf("trace of the commit after the kill missing from collector")
	}
	r.ProbeSpans, r.ProbeInstances, r.ProbePartial = len(st.Spans), len(st.Instances), st.Partial
	onPath := make(map[string]bool)
	for _, seg := range obs.CriticalPathDeep(st.Spans) {
		if seg.Instance != "" {
			onPath[seg.Instance] = true
		}
	}
	r.ProbePathInstances = len(onPath)
	return nil
}

// Print writes the soak summary.
func (r *SoakResult) Print(w io.Writer) {
	fmt.Fprintf(w, "Chaos soak — seed %d: %d acked commits, %d devices over %d workspaces, phases %v\n",
		r.Seed, r.Commits, r.Clients, soakWorkspaces, soakPhases)
	status := "CONVERGED"
	if !r.Converged {
		status = "DIVERGED"
	}
	fmt.Fprintf(w, "%-30s %s (settle %v, max respawn %v)\n", "outcome", status,
		r.SettleTime.Round(time.Millisecond), r.MaxRespawn.Round(time.Millisecond))
	fmt.Fprintf(w, "%-30s %v; %d crashes, phase switches at %v\n", "workload window", r.Window, r.Crashes, r.PhaseAt)
	fmt.Fprintf(w, "%-30s %d instances after %d scale events\n", "final fleet", r.FinalInstances, r.Scales)
	fmt.Fprintf(w, "%-30s %d stitched traces; hottest workspace %s (%d commits)\n",
		"fleet obs", r.StitchedTraces, r.HotTop, r.HotTopCommits)
	fmt.Fprintf(w, "%-30s killed %s; trace %s: %d spans, %d instances, critical path crosses %d instances\n",
		"probe after kill", r.ProbeKilled, r.ProbeTrace, r.ProbeSpans, r.ProbeInstances, r.ProbePathInstances)
	fmt.Fprintf(w, "%-30s %v\n", "schedule stable", r.ScheduleStable)
	keys := make([]string, 0, len(r.FaultCounts))
	for k := range r.FaultCounts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "%-30s %d\n", "faults "+k, r.FaultCounts[k])
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
	downs []crashDown
	stop  chan struct{}
	done  chan struct{}
	once  sync.Once
}

type crashDown struct {
	id       string
	from, to time.Time
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
			id := fleet.Kill()
			if id == "" {
				continue
			}
			// Open the interval at once, so a commit completing while the
			// service is still down classifies as crashed.
			c.mu.Lock()
			c.downs = append(c.downs, crashDown{id: id, from: time.Now()})
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

// result returns the ids of the instances killed and the longest completed
// respawn.
func (c *crashInjector) result() (killed []string, maxRespawn time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, d := range c.downs {
		killed = append(killed, d.id)
		if !d.to.IsZero() && d.to.Sub(d.from) > maxRespawn {
			maxRespawn = d.to.Sub(d.from)
		}
	}
	return killed, maxRespawn
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

package bench

import (
	"fmt"
	"io"
	"time"

	"stacksync/internal/chunker"
	"stacksync/internal/client"
	"stacksync/internal/deploy"
	"stacksync/internal/metastore"
	"stacksync/internal/metrics"
	"stacksync/internal/omq"
	"stacksync/internal/provision"
	"stacksync/internal/trace"
)

// RunFig8ab replays UB1 day 8 with both provisioning policies after feeding
// the predictor the previous week's 15-minute summaries (§5.3.2). The
// returned result covers both Fig. 8(a) (instances vs workload) and 8(b)
// (response times).
func RunFig8ab(seed int64) *SimResult {
	week, day8 := trace.UB1WeekAndDay8(seed)
	return RunAutoScaleSim(SimConfig{
		SLA:      provision.DefaultSLA(),
		History:  week,
		Workload: day8,
		Seed:     seed,
	})
}

// RunFig8cde replays one hour of day 8 (hour 20, the busy evening) while
// the predictor is fooled into planning for another hour's pattern (§5.3.3
// fools it with hour 30 of the day-8 trace): the predictive layer
// under-provisions and the reactive layer repairs the allocation within one
// 5-minute cycle. The synthetic diurnal curve is symmetric around its peak,
// so the offset targets hour 3 (deep night) to reproduce the published
// magnitude of the misprediction.
func RunFig8cde(seed int64) *SimResult {
	week, day8 := trace.UB1WeekAndDay8(seed)
	hour20 := day8.HourSlice(20)
	return RunAutoScaleSim(SimConfig{
		SLA:              provision.DefaultSLA(),
		History:          week,
		Workload:         hour20,
		MispredictOffset: 7 * time.Hour, // hour 20 + 7 → hour 3's quiet pattern
		Seed:             seed,
	})
}

// Fig8fConfig parameterizes the fault-tolerance experiment. The paper runs
// 10 minutes with a crash every 30 s on real hardware; defaults here
// compress the schedule (same crash-to-repair ratio) to keep the bench fast.
type Fig8fConfig struct {
	// Duration of the measured run.
	Duration time.Duration
	// CrashEvery kills the live SyncService instance at this period.
	CrashEvery time.Duration
	// CheckEvery is the Supervisor's health-check period (paper: 1 s).
	CheckEvery time.Duration
	// CommitGap is the idle time between consecutive client commits.
	CommitGap time.Duration
}

func (c *Fig8fConfig) applyDefaults() {
	if c.Duration <= 0 {
		c.Duration = 20 * time.Second
	}
	if c.CrashEvery <= 0 {
		c.CrashEvery = 2 * time.Second
	}
	if c.CheckEvery <= 0 {
		c.CheckEvery = 100 * time.Millisecond
	}
	if c.CommitGap <= 0 {
		c.CommitGap = 20 * time.Millisecond
	}
}

// Fig8fResult separates commit response times observed while the instance
// was up from those that overlapped a crash-and-respawn window.
type Fig8fResult struct {
	Steady  metrics.Boxplot `json:"steady"`
	Crashed metrics.Boxplot `json:"crashed"`
	// Crashes is how many kills were injected.
	Crashes int `json:"crashes"`
	// LostCommits counts commits that never completed (must be 0: the MQ
	// redelivers unacked commits to the respawned instance).
	LostCommits int `json:"lostCommits"`
}

// RunFig8f runs the real stack — broker, metadata store, storage, client,
// RemoteBroker-spawned SyncService, Supervisor — and measures commit
// response times while the instance is killed on a fixed schedule (§5.3.4).
func RunFig8f(cfg Fig8fConfig) (*Fig8fResult, error) {
	cfg.applyDefaults()

	// Supervisor keeping exactly one RemoteBroker-spawned instance alive;
	// notifications go through a stable broker that outlives the crashes.
	fleet, err := deploy.Start(deploy.Config{
		Workspaces: []metastore.Workspace{{ID: "ft-ws", Owner: "user-0"}},
		Supervisor: &omq.SupervisorConfig{
			CheckEvery:  cfg.CheckEvery,
			Provisioner: omq.FixedProvisioner(1),
		},
	})
	if err != nil {
		return nil, err
	}
	defer fleet.Close()

	clientBroker, err := omq.NewBroker(fleet.MQ, omq.WithID("30-client"))
	if err != nil {
		return nil, err
	}
	defer clientBroker.Close()
	cl, err := client.NewClient(client.Config{
		UserID: "user-0", DeviceID: "dev-0", WorkspaceID: "ft-ws",
		Broker: clientBroker, Storage: fleet.Chunks,
		Chunker: chunker.Fixed{ChunkSize: 64 * 1024},
		// Proxy retries alone cover the crash window; retransmission would
		// blur the per-commit latency attribution.
		RetransmitEvery: -1,
	})
	if err != nil {
		return nil, err
	}
	if err := cl.Start(); err != nil {
		return nil, err
	}
	defer cl.Close()

	// Crash injector: a kill every CrashEvery over the run. Each kill records
	// the true down interval, until the Supervisor's replacement is back.
	began := time.Now()
	var offsets []time.Duration
	for at := cfg.CrashEvery; at <= cfg.Duration; at += cfg.CrashEvery {
		offsets = append(offsets, at)
	}
	crashes := startCrashes(fleet, began, offsets, func() int { return 1 })
	defer crashes.Stop()

	// Commit loop.
	steady := metrics.NewRecorder()
	crashed := metrics.NewRecorder()
	lost := 0
	end := began.Add(cfg.Duration)
	seq := 0
	for time.Now().Before(end) {
		path := fmt.Sprintf("ft/file-%06d.txt", seq)
		seq++
		start := time.Now()
		if err := cl.PutFile(path, []byte(fmt.Sprintf("payload %d", seq))); err != nil {
			lost++
			continue
		}
		waitErr := cl.WaitForVersion(path, 1, 20*time.Second)
		elapsed := time.Since(start)
		if waitErr != nil {
			lost++
			continue
		}
		// Classify: did this commit overlap a real down interval? Those are
		// the commits that paid queueing-until-respawn or redelivery delay.
		if crashes.overlaps(start, start.Add(elapsed)) {
			crashed.Observe(elapsed)
		} else {
			steady.Observe(elapsed)
		}
		time.Sleep(cfg.CommitGap)
	}
	crashes.Stop()
	killed, _ := crashes.result()
	return &Fig8fResult{
		Steady:      steady.Boxplot(),
		Crashed:     crashed.Boxplot(),
		Crashes:     len(killed),
		LostCommits: lost,
	}, nil
}

// Print writes the two boxplots.
func (r *Fig8fResult) Print(w io.Writer) {
	fmt.Fprintf(w, "Fig 8(f) — fault tolerance (%d crashes injected, %d commits lost)\n", r.Crashes, r.LostCommits)
	fmt.Fprintf(w, "%-22s %5s %8s %8s %8s %8s %8s\n", "condition", "n", "min", "q1", "median", "q3", "max")
	for _, row := range []struct {
		name string
		b    metrics.Boxplot
	}{{"instance running", r.Steady}, {"instance crashed", r.Crashed}} {
		fmt.Fprintf(w, "%-22s %5d %8.3f %8.3f %8.3f %8.3f %8.3f\n",
			row.name, row.b.N, row.b.Min, row.b.Q1, row.b.Median, row.b.Q3, row.b.Max)
	}
}

package bench

import (
	"fmt"
	"io"
	"math/rand"
	"sort"
	"sync"
	"time"

	"stacksync/internal/core"
	"stacksync/internal/deploy"
	"stacksync/internal/metastore"
	"stacksync/internal/metrics"
	"stacksync/internal/obs"
	"stacksync/internal/omq"
	"stacksync/internal/trace"
)

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
		lats   []float64 // seconds
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
				lats = append(lats, lat.Seconds())
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
		P50:                time.Duration(metrics.Percentile(lats, 0.50) * 1e9),
		P99:                time.Duration(metrics.Percentile(lats, 0.99) * 1e9),
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

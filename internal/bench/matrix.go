package bench

import (
	"fmt"
	"io"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"stacksync/internal/chunker"
	"stacksync/internal/client"
	"stacksync/internal/core"
	"stacksync/internal/deploy"
	"stacksync/internal/metastore"
	"stacksync/internal/metrics"
	"stacksync/internal/obs"
	"stacksync/internal/omq"
)

// The scenario matrix: three workload shapes that none of the end-to-end
// benchmark's workloads covers, each run against the real in-process stack
// as a correctness/SLO check — a scenario that fails to converge or breaks
// its SLO invariant reports a violation.
//
//   - churn:     mobile connect/disconnect cycles — devices repeatedly drop
//     off, come back with a cold local DB, and must resync before writing.
//   - coldstart: thundering herd — a fleet of brand-new devices bootstraps
//     a populated workspace simultaneously.
//   - reconnect: getChanges storm against a committing fleet — a burst of
//     cold full-state readers plus warm changes-since-v readers hammers the
//     MVCC read path while committers keep writing; fails if the commit p99
//     collapses versus a no-reader baseline run (DESIGN §16).

// MatrixConfig parameterizes the scenario matrix run.
type MatrixConfig struct {
	// Seed fixes workload shapes (content bytes, schedules).
	Seed int64
	// Quick shrinks the scenarios for interactive runs.
	Quick bool
	// Smoke shrinks them further for TestMatrixSmoke: a correctness pass
	// over every scenario in a few seconds, not a measurement.
	Smoke bool
}

// matrixSizes resolves the per-scenario workload sizes for a config.
type matrixSizes struct {
	churnDevices, churnCycles      int
	coldFiles, coldClients         int
	reconnSeedItems, reconnCommits int
	reconnCommitters               int
	reconnColdReaders              int
	reconnWarmReaders              int
	fileBytes                      int
	waitBudget                     time.Duration
	commitSLO, resyncSLO           time.Duration
}

func (c MatrixConfig) sizes() matrixSizes {
	s := matrixSizes{
		churnDevices: 4, churnCycles: 6,
		coldFiles: 48, coldClients: 8,
		reconnSeedItems: 64, reconnCommits: 600, reconnCommitters: 6,
		reconnColdReaders: 8, reconnWarmReaders: 8,
		fileBytes:  8 * 1024,
		waitBudget: 30 * time.Second,
		commitSLO:  450 * time.Millisecond,
		resyncSLO:  2 * time.Second,
	}
	if c.Quick {
		s.churnDevices, s.churnCycles = 3, 4
		s.coldFiles, s.coldClients = 24, 5
		s.reconnSeedItems, s.reconnCommits = 32, 300
		s.reconnCommitters, s.reconnColdReaders, s.reconnWarmReaders = 4, 4, 4
	}
	if c.Smoke {
		s.churnDevices, s.churnCycles = 2, 2
		s.coldFiles, s.coldClients = 8, 3
		s.reconnSeedItems, s.reconnCommits = 16, 80
		s.reconnCommitters, s.reconnColdReaders, s.reconnWarmReaders = 4, 2, 2
		s.fileBytes = 2 * 1024
		s.waitBudget = 10 * time.Second
	}
	return s
}

// ScenarioResult is one scenario's measured outcome.
type ScenarioResult struct {
	Name    string        `json:"name"`
	Ops     int           `json:"ops"`
	Elapsed time.Duration `json:"elapsed"`
	// OpsPerSec is the scenario's throughput; what one op is depends on the
	// scenario (commits, files).
	OpsPerSec float64       `json:"opsPerSec"`
	P50       time.Duration `json:"p50"`
	P99       time.Duration `json:"p99"`
	SLOTarget time.Duration `json:"sloTarget"`
	// Attainment is the fraction of latency samples within SLOTarget.
	Attainment float64 `json:"attainment"`
	Converged  bool    `json:"converged"`
	// Retries counts omq call retry attempts over the run — the repair
	// traffic the scenario induced (informational, from the registry).
	Retries    uint64   `json:"retries"`
	Violations []string `json:"violations,omitempty"`
}

// MatrixResult is the full matrix run.
type MatrixResult struct {
	Seed      int64            `json:"seed"`
	Scenarios []ScenarioResult `json:"scenarios"`
}

// Violations aggregates every scenario's broken invariants.
func (r *MatrixResult) Violations() []string {
	var out []string
	for _, s := range r.Scenarios {
		for _, v := range s.Violations {
			out = append(out, s.Name+": "+v)
		}
	}
	return out
}

// Print writes the matrix summary table.
func (r *MatrixResult) Print(w io.Writer) {
	fmt.Fprintf(w, "Scenario matrix — seed %d\n", r.Seed)
	fmt.Fprintf(w, "%-10s %6s %10s %10s %10s %10s %7s %9s\n",
		"scenario", "ops", "ops/s", "p50", "p99", "slo d", "attain", "converged")
	for _, s := range r.Scenarios {
		conv := "yes"
		if !s.Converged {
			conv = "NO"
		}
		fmt.Fprintf(w, "%-10s %6d %10.1f %10v %10v %10v %7.4f %9s\n",
			s.Name, s.Ops, s.OpsPerSec,
			s.P50.Round(100*time.Microsecond), s.P99.Round(100*time.Microsecond),
			s.SLOTarget, s.Attainment, conv)
	}
	for _, v := range r.Violations() {
		fmt.Fprintf(w, "VIOLATION: %s\n", v)
	}
}

// RunMatrix executes the three scenarios in sequence.
func RunMatrix(cfg MatrixConfig) (*MatrixResult, error) {
	sz := cfg.sizes()
	res := &MatrixResult{Seed: cfg.Seed}
	for _, run := range []struct {
		name string
		fn   func(MatrixConfig, matrixSizes) (*ScenarioResult, error)
	}{
		{"churn", runChurnScenario},
		{"coldstart", runColdStartScenario},
		{"reconnect", runReconnectScenario},
	} {
		s, err := run.fn(cfg, sz)
		if err != nil {
			return nil, fmt.Errorf("bench: matrix scenario %s: %w", run.name, err)
		}
		res.Scenarios = append(res.Scenarios, *s)
	}
	return res, nil
}

// matrixContent yields deterministic pseudo-random file bodies.
func matrixContent(rnd *rand.Rand, n int) []byte {
	b := make([]byte, n)
	rnd.Read(b)
	return b
}

// scenarioStats fills the latency-derived fields of a result.
func scenarioStats(s *ScenarioResult, lats []time.Duration, slo *obs.SLOTracker) {
	secs := make([]float64, len(lats))
	for i, l := range lats {
		secs[i] = l.Seconds()
	}
	s.P50 = time.Duration(metrics.Percentile(secs, 0.50) * 1e9)
	s.P99 = time.Duration(metrics.Percentile(secs, 0.99) * 1e9)
	s.Attainment = slo.Attainment()
	if s.Elapsed > 0 {
		s.OpsPerSec = float64(s.Ops) / s.Elapsed.Seconds()
	}
}

// --- churn: mobile connect/disconnect cycles ------------------------------

// runChurnScenario has sz.churnDevices devices cycle through connect →
// resync → commit → disconnect, sz.churnCycles times each, concurrently.
// Every reconnect starts from a cold local DB, so the device must pull its
// own history back before writing the next file. Latency is
// reconnect-to-recovered: Start+Resync until the device again holds every
// file it ever wrote.
func runChurnScenario(cfg MatrixConfig, sz matrixSizes) (*ScenarioResult, error) {
	const workspace = "matrix-churn"
	reg := obs.NewRegistry()
	fleet, err := deploy.Start(deploy.Config{
		Workspaces: []metastore.Workspace{{ID: workspace, Owner: "user-0", Members: memberNames(sz.churnDevices)}},
		Registry:   reg,
	})
	if err != nil {
		return nil, err
	}
	defer fleet.Close()
	m, base := fleet.MQ, fleet.Chunks

	newIncarnation := func(dev int) (*client.Client, *omq.Broker, error) {
		cb, err := omq.NewBroker(m, omq.WithID(fmt.Sprintf("churn-%d", dev)), omq.WithRegistry(reg))
		if err != nil {
			return nil, nil, err
		}
		cl, err := client.NewClient(client.Config{
			UserID:      fmt.Sprintf("user-%d", dev),
			DeviceID:    fmt.Sprintf("dev-%d", dev),
			WorkspaceID: workspace,
			Broker:      cb,
			Storage:     base,
			Registry:    reg,
			Chunker:     chunker.Fixed{ChunkSize: 4 * 1024},
		})
		if err != nil {
			cb.Close()
			return nil, nil, err
		}
		if err := cl.Start(); err != nil {
			cb.Close()
			return nil, nil, err
		}
		return cl, cb, nil
	}

	slo := obs.NewSLOTracker(obs.SLOConfig{Target: sz.resyncSLO, Objective: 0.99})
	rndMu := sync.Mutex{}
	rnd := rand.New(rand.NewSource(cfg.Seed))
	content := func(n int) []byte {
		rndMu.Lock()
		defer rndMu.Unlock()
		return matrixContent(rnd, n)
	}

	s := &ScenarioResult{Name: "churn", SLOTarget: sz.resyncSLO, Converged: true}
	var (
		mu   sync.Mutex
		lats []time.Duration
	)
	report := func(lat time.Duration, viol string) {
		mu.Lock()
		defer mu.Unlock()
		if viol != "" {
			s.Converged = false
			s.Violations = append(s.Violations, viol)
		}
		if lat >= 0 {
			lats = append(lats, lat)
			slo.Observe(lat)
		}
	}

	start := time.Now()
	var wg sync.WaitGroup
	for dev := 0; dev < sz.churnDevices; dev++ {
		wg.Add(1)
		go func(dev int) {
			defer wg.Done()
			var own []string
			for cyc := 0; cyc < sz.churnCycles; cyc++ {
				t0 := time.Now()
				cl, cb, err := newIncarnation(dev)
				if err != nil {
					report(-1, fmt.Sprintf("dev-%d cycle %d reconnect: %v", dev, cyc, err))
					return
				}
				// Recover this device's own history from the server: a cold
				// local DB plus resync must yield every previously-written
				// file.
				recovered := false
				deadline := time.Now().Add(sz.waitBudget)
				for time.Now().Before(deadline) {
					if err := cl.Resync(); err == nil && hasAll(cl, own) {
						recovered = true
						break
					}
					time.Sleep(5 * time.Millisecond)
				}
				if !recovered {
					report(-1, fmt.Sprintf("dev-%d cycle %d never recovered its %d files", dev, cyc, len(own)))
				} else {
					report(time.Since(t0), "")
				}
				path := fmt.Sprintf("churn/dev%d/c%02d.txt", dev, cyc)
				if err := cl.PutFile(path, content(sz.fileBytes)); err != nil {
					report(-1, fmt.Sprintf("dev-%d cycle %d put %s: %v", dev, cyc, path, err))
				} else {
					own = append(own, path)
					// The commit must be acknowledged locally before the
					// device drops off, or the next incarnation races its own
					// in-flight proposal.
					if err := cl.WaitForVersion(path, 1, sz.waitBudget); err != nil {
						report(-1, fmt.Sprintf("dev-%d cycle %d commit %s not applied: %v", dev, cyc, path, err))
					}
				}
				cl.Close()
				cb.Close()
			}
			// Final incarnation: the device comes back once more and must
			// converge on the full workspace state (everyone's files).
			cl, cb, err := newIncarnation(dev)
			if err != nil {
				report(-1, fmt.Sprintf("dev-%d final reconnect: %v", dev, err))
				return
			}
			defer cb.Close()
			defer cl.Close()
			want := sz.churnDevices * sz.churnCycles
			deadline := time.Now().Add(sz.waitBudget)
			for time.Now().Before(deadline) {
				if err := cl.Resync(); err == nil && len(cl.Paths()) == want {
					return
				}
				time.Sleep(10 * time.Millisecond)
			}
			report(-1, fmt.Sprintf("dev-%d final state holds %d files, want %d", dev, len(cl.Paths()), want))
		}(dev)
	}
	wg.Wait()
	s.Elapsed = time.Since(start)
	s.Ops = sz.churnDevices * sz.churnCycles
	s.Retries = reg.CounterValue("omq_retry_attempts_total", "oid", core.ServiceOID)
	scenarioStats(s, lats, slo)
	return s, nil
}

// hasAll reports whether the client holds every path.
func hasAll(cl *client.Client, paths []string) bool {
	for _, p := range paths {
		if _, ok := cl.FileContent(p); !ok {
			return false
		}
	}
	return true
}

// --- coldstart: thundering herd -------------------------------------------

// runColdStartScenario seeds a workspace with sz.coldFiles files, then
// boots sz.coldClients brand-new devices at the same instant. Every device
// must bootstrap the full state (metadata resync + chunk downloads) while
// all its peers hammer the same storage and metadata path. Latency is
// boot-to-converged per device.
func runColdStartScenario(cfg MatrixConfig, sz matrixSizes) (*ScenarioResult, error) {
	const workspace = "matrix-cold"
	reg := obs.NewRegistry()
	fleet, err := deploy.Start(deploy.Config{
		Workspaces: []metastore.Workspace{{ID: workspace, Owner: "user-0", Members: memberNames(sz.coldClients + 1)}},
		Registry:   reg,
	})
	if err != nil {
		return nil, err
	}
	defer fleet.Close()
	m, base := fleet.MQ, fleet.Chunks

	// Seed the workspace: user-0's device writes the corpus, then leaves —
	// on every path, so a failed seed leaks neither the device nor its broker.
	paths := make([]string, sz.coldFiles)
	seed := func() error {
		seedBroker, err := omq.NewBroker(m, omq.WithID("cold-seed"), omq.WithRegistry(reg))
		if err != nil {
			return err
		}
		defer seedBroker.Close()
		seeder, err := client.NewClient(client.Config{
			UserID: "user-0", DeviceID: "dev-seed", WorkspaceID: workspace,
			Broker: seedBroker, Storage: base, Registry: reg,
			Chunker: chunker.Fixed{ChunkSize: 4 * 1024},
		})
		if err != nil {
			return err
		}
		defer seeder.Close()
		if err := seeder.Start(); err != nil {
			return err
		}
		rnd := rand.New(rand.NewSource(cfg.Seed))
		for k := range paths {
			paths[k] = fmt.Sprintf("corpus/f%04d.txt", k)
			if err := seeder.PutFile(paths[k], matrixContent(rnd, sz.fileBytes)); err != nil {
				return fmt.Errorf("seed %s: %w", paths[k], err)
			}
		}
		for _, p := range paths {
			if err := seeder.WaitForVersion(p, 1, sz.waitBudget); err != nil {
				return fmt.Errorf("seed commit %s not applied: %w", p, err)
			}
		}
		return nil
	}
	if err := seed(); err != nil {
		return nil, err
	}

	slo := obs.NewSLOTracker(obs.SLOConfig{Target: sz.resyncSLO, Objective: 0.99})
	s := &ScenarioResult{Name: "coldstart", SLOTarget: sz.resyncSLO, Converged: true}
	var (
		mu   sync.Mutex
		lats []time.Duration
	)

	// The herd: every device boots at the barrier and bootstraps the corpus.
	barrier := make(chan struct{})
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < sz.coldClients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cb, err := omq.NewBroker(m, omq.WithID(fmt.Sprintf("cold-%d", i)), omq.WithRegistry(reg))
			if err != nil {
				mu.Lock()
				s.Converged = false
				s.Violations = append(s.Violations, fmt.Sprintf("client %d broker: %v", i, err))
				mu.Unlock()
				return
			}
			defer cb.Close()
			cl, err := client.NewClient(client.Config{
				UserID: fmt.Sprintf("user-%d", i+1), DeviceID: fmt.Sprintf("dev-cold-%d", i),
				WorkspaceID: workspace, Broker: cb, Storage: base, Registry: reg,
				Chunker: chunker.Fixed{ChunkSize: 4 * 1024},
			})
			if err != nil {
				mu.Lock()
				s.Converged = false
				s.Violations = append(s.Violations, fmt.Sprintf("client %d: %v", i, err))
				mu.Unlock()
				return
			}
			defer cl.Close()
			<-barrier
			t0 := time.Now()
			if err := cl.Start(); err != nil {
				mu.Lock()
				s.Converged = false
				s.Violations = append(s.Violations, fmt.Sprintf("client %d start: %v", i, err))
				mu.Unlock()
				return
			}
			done := false
			deadline := time.Now().Add(sz.waitBudget)
			for time.Now().Before(deadline) {
				if err := cl.Resync(); err == nil && hasAll(cl, paths) {
					done = true
					break
				}
				time.Sleep(5 * time.Millisecond)
			}
			lat := time.Since(t0)
			mu.Lock()
			if !done {
				s.Converged = false
				s.Violations = append(s.Violations,
					fmt.Sprintf("client %d bootstrapped %d of %d files within %v", i, len(cl.Paths()), len(paths), sz.waitBudget))
			} else {
				lats = append(lats, lat)
				slo.Observe(lat)
			}
			mu.Unlock()
		}(i)
	}
	close(barrier)
	wg.Wait()
	s.Elapsed = time.Since(start)
	s.Ops = sz.coldClients * sz.coldFiles // files bootstrapped fleet-wide
	s.Retries = reg.CounterValue("omq_retry_attempts_total", "oid", core.ServiceOID)
	scenarioStats(s, lats, slo)
	sort.Strings(s.Violations)
	return s, nil
}

// --- reconnect: getChanges storm over the MVCC read path ------------------

// runReconnectScenario measures the lock-free snapshot read path's promise
// (DESIGN §16): commit latency must not collapse when a reconnect storm
// hammers the same workspace. Phase one fires sz.reconnCommits commits from
// sz.reconnCommitters workers with no readers at all and records the
// baseline commit p99. Phase two repeats the identical commit load while
// sz.reconnColdReaders loop GetChangesSince from cursor 0 (the full state)
// and sz.reconnWarmReaders loop it from tracked cursors (reply versions must
// never go backwards, and full-state replies must never shrink below the
// seeded corpus). The reported result is the storm phase; a violation fires when the
// storm p99 exceeds both 8x the baseline and an absolute 100ms floor. The
// ratio alone would trip on scheduler noise over a near-zero baseline, and
// the floor alone would trip on race-enabled single-core CI where every
// latency inflates ~15x; a true lock collapse (the pre-MVCC store served
// about one commit per second under this storm) clears both by orders of
// magnitude.
func runReconnectScenario(cfg MatrixConfig, sz matrixSizes) (*ScenarioResult, error) {
	const workspace = "matrix-reconn"
	reg := obs.NewRegistry()
	// A SyncService fleet sharing the one store, one instance per concurrent
	// caller. Each bound object drains its call queue with a single worker
	// goroutine, so a lone instance would serialize reads ahead of commits at
	// the dispatch layer and the gate would measure queue dwell, not the
	// store. With a worker per caller the only cross-traffic coupling left is
	// the metastore itself — exactly the contention DESIGN §16 claims away.
	fleet, err := deploy.Start(deploy.Config{
		Workspaces: []metastore.Workspace{{ID: workspace, Owner: "user-0"}},
		// Finite retention keeps compaction live during the storm, so some
		// warm cursors genuinely fall below the watermark and exercise the
		// full-state fallback rather than only the cheap tail branch.
		Meta:      []metastore.Option{metastore.WithLogRetention(256)},
		Registry:  reg,
		Instances: sz.reconnCommitters + sz.reconnColdReaders + sz.reconnWarmReaders,
	})
	if err != nil {
		return nil, err
	}
	defer fleet.Close()
	m, meta := fleet.MQ, fleet.Meta
	// Seed a populated workspace so cold readers pay a real full-state cost.
	seed := make([]metastore.ItemVersion, sz.reconnSeedItems)
	for k := range seed {
		path := fmt.Sprintf("seed/f%04d.txt", k)
		seed[k] = metastore.ItemVersion{
			Workspace: workspace, ItemID: workspace + ":" + path, Path: path,
			Version: 1, Status: metastore.Added, Size: int64(sz.fileBytes),
		}
	}
	if _, err := meta.CommitBatch(seed); err != nil {
		return nil, err
	}
	// commitPhase fires sz.reconnCommits single-item commits through the RPC
	// surface (unique items per phase) and returns the per-commit latencies.
	commitPhase := func(phase string) ([]time.Duration, int, error) {
		jobCh := make(chan int, sz.reconnCommits)
		for i := 0; i < sz.reconnCommits; i++ {
			jobCh <- i
		}
		close(jobCh)
		var (
			mu     sync.Mutex
			lats   []time.Duration
			failed int
		)
		errCh := make(chan error, sz.reconnCommitters)
		var wg sync.WaitGroup
		for w := 0; w < sz.reconnCommitters; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				cb, err := omq.NewBroker(m, omq.WithID(fmt.Sprintf("reconn-%s-%d", phase, w)), omq.WithRegistry(reg))
				if err != nil {
					errCh <- err
					return
				}
				defer cb.Close()
				proxy := cb.Lookup(core.ServiceOID)
				dev := fmt.Sprintf("reconn-dev-%d", w)
				for i := range jobCh {
					path := fmt.Sprintf("%s/f%05d.txt", phase, i)
					req := core.CommitRequest{
						Workspace: workspace,
						DeviceID:  dev,
						Items: []metastore.ItemVersion{{
							Workspace: workspace,
							ItemID:    workspace + ":" + path,
							Path:      path,
							Version:   1,
							Status:    metastore.Added,
							Size:      int64(sz.fileBytes),
							DeviceID:  dev,
						}},
					}
					t0 := time.Now()
					err := proxy.Call("CommitRequest", nil, req)
					lat := time.Since(t0)
					mu.Lock()
					lats = append(lats, lat)
					if err != nil {
						failed++
					}
					mu.Unlock()
				}
			}(w)
		}
		wg.Wait()
		close(errCh)
		for err := range errCh {
			return nil, 0, err
		}
		return lats, failed, nil
	}

	// Phase one: no readers — the baseline the storm is judged against.
	baseLats, baseFailed, err := commitPhase("base")
	if err != nil {
		return nil, err
	}
	baseSecs := make([]float64, len(baseLats))
	for i, l := range baseLats {
		baseSecs[i] = l.Seconds()
	}
	baseP99 := time.Duration(metrics.Percentile(baseSecs, 0.99) * 1e9)

	// Phase two: the storm. Readers poll for the whole commit phase, each kind
	// checking its own invariant on every reply. The polls are paced: a real
	// reconnecting client issues one getChanges and leaves, so the storm is
	// many bounded-rate readers, not busy-loops — and on a single-core runner
	// an unpaced reader loop would measure scheduler fairness against the
	// committers rather than the read path's locking behaviour.
	const (
		coldPause = 5 * time.Millisecond
		warmPause = time.Millisecond
	)
	var (
		coldReads, warmReads atomic.Int64
		readErrs, shortReads atomic.Int64
		versionRegressions   atomic.Int64
		stop                 = make(chan struct{})
		readerWG             sync.WaitGroup
	)
	for r := 0; r < sz.reconnColdReaders; r++ {
		readerWG.Add(1)
		go func(r int) {
			defer readerWG.Done()
			cb, err := omq.NewBroker(m, omq.WithID(fmt.Sprintf("reconn-cold-%d", r)), omq.WithRegistry(reg))
			if err != nil {
				readErrs.Add(1)
				return
			}
			defer cb.Close()
			proxy := cb.Lookup(core.ServiceOID)
			for {
				select {
				case <-stop:
					return
				default:
				}
				var state core.ChangesReply
				if err := proxy.Call("GetChangesSince", &state, workspace, uint64(0)); err != nil {
					readErrs.Add(1)
					return
				}
				if !state.Full || len(state.Items) < sz.reconnSeedItems {
					shortReads.Add(1)
				}
				coldReads.Add(1)
				time.Sleep(coldPause)
			}
		}(r)
	}
	for r := 0; r < sz.reconnWarmReaders; r++ {
		readerWG.Add(1)
		go func(r int) {
			defer readerWG.Done()
			cb, err := omq.NewBroker(m, omq.WithID(fmt.Sprintf("reconn-warm-%d", r)), omq.WithRegistry(reg))
			if err != nil {
				readErrs.Add(1)
				return
			}
			defer cb.Close()
			proxy := cb.Lookup(core.ServiceOID)
			var cursor uint64
			for {
				select {
				case <-stop:
					return
				default:
				}
				var reply core.ChangesReply
				if err := proxy.Call("GetChangesSince", &reply, workspace, cursor); err != nil {
					readErrs.Add(1)
					return
				}
				if reply.Version < cursor {
					versionRegressions.Add(1)
				}
				cursor = reply.Version
				warmReads.Add(1)
				time.Sleep(warmPause)
			}
		}(r)
	}

	slo := obs.NewSLOTracker(obs.SLOConfig{Target: sz.commitSLO, Objective: 0.99})
	s := &ScenarioResult{Name: "reconnect", SLOTarget: sz.commitSLO, Converged: true}
	start := time.Now()
	stormLats, stormFailed, perr := commitPhase("storm")
	close(stop)
	readerWG.Wait()
	if perr != nil {
		return nil, perr
	}
	s.Elapsed = time.Since(start)
	s.Ops = sz.reconnCommits
	for _, l := range stormLats {
		slo.Observe(l)
	}

	if n := baseFailed + stormFailed; n > 0 {
		s.Converged = false
		s.Violations = append(s.Violations, fmt.Sprintf("%d of %d commits failed", n, 2*sz.reconnCommits))
	}
	// Every acked commit must be durable despite the read storm.
	state, err := meta.State(workspace)
	if err != nil {
		return nil, err
	}
	if want := sz.reconnSeedItems + 2*sz.reconnCommits - baseFailed - stormFailed; len(state) != want {
		s.Converged = false
		s.Violations = append(s.Violations,
			fmt.Sprintf("metadata store holds %d items, want %d", len(state), want))
	}
	if coldReads.Load() == 0 || warmReads.Load() == 0 {
		s.Converged = false
		s.Violations = append(s.Violations,
			fmt.Sprintf("storm never materialized: %d cold / %d warm reads", coldReads.Load(), warmReads.Load()))
	}
	if n := readErrs.Load(); n > 0 {
		s.Converged = false
		s.Violations = append(s.Violations, fmt.Sprintf("%d reader calls failed", n))
	}
	if n := shortReads.Load(); n > 0 {
		s.Converged = false
		s.Violations = append(s.Violations,
			fmt.Sprintf("%d full-state reads returned fewer than the %d seeded items", n, sz.reconnSeedItems))
	}
	if n := versionRegressions.Load(); n > 0 {
		s.Converged = false
		s.Violations = append(s.Violations,
			fmt.Sprintf("%d changes-since replies regressed the workspace version", n))
	}
	scenarioStats(s, stormLats, slo)
	// The headline gate: the storm must not collapse the commit path.
	if s.P99 > 8*baseP99 && s.P99 > 100*time.Millisecond {
		s.Converged = false
		s.Violations = append(s.Violations,
			fmt.Sprintf("storm commit p99 %v collapsed vs no-reader baseline %v", s.P99, baseP99))
	}
	s.Retries = reg.CounterValue("omq_retry_attempts_total", "oid", core.ServiceOID)
	return s, nil
}

package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// setupRounds is how many times a run sets the deployment up; setup_s is the
// median, and the last one is driven.
const setupRounds = 9

// runConfig is one invocation's settings.
type runConfig struct {
	seed    int64
	warm    time.Duration
	window  time.Duration
	setups  int    // set-ups per run; the last one is driven
	workDir string // scratch root for data directories and span files
	outDir  string // where trace-event files go; empty writes none
	shipped string // parity mode: stacksync-server binary to drive instead
}

// result is everything one run of one workload reports.
type result struct {
	Workload   string   `json:"workload"`
	Seed       int64    `json:"seed"`
	Traced     bool     `json:"traced"`
	WindowS    float64  `json:"window_s"`
	Attempted  int      `json:"attempted"`
	Failed     int      `json:"failed"`
	Correct    bool     `json:"correct"`
	Violations []string `json:"violations,omitempty"`
	// EndToEnd and Timed are measured in every run; in a traced run they are
	// the traced system's and only serve to price the wrappers.
	EndToEnd  map[string]float64 `json:"end_to_end"`
	Timed     map[string]float64 `json:"timed"`
	PerLayer  map[string]float64 `json:"per_layer,omitempty"`
	Commit    timing             `json:"commit_ms"`
	Sync      timing             `json:"sync_ms"`
	LateP99MS float64            `json:"late_p99_ms"`
	Findings  []string           `json:"findings,omitempty"`
	TraceFile string             `json:"trace_file,omitempty"`
}

// runOnce sets the deployment up (cfg.setups times), drives one window of
// w, and checks convergence and durability. With traced set the benchmark's
// wrappers are installed and the per-layer metrics are computed as well.
func runOnce(w *workload, cfg runConfig, traced bool) (*result, error) {
	began := time.Now()
	var r *rig
	var setups []float64
	for i := 0; i < cfg.setups; i++ {
		if r != nil {
			r.close()
		}
		var err error
		dataDir := filepath.Join(cfg.workDir, fmt.Sprintf("data-%d-%d", os.Getpid(), i))
		if r, err = setUp(w, dataDir, traced, cfg.shipped); err != nil {
			return nil, fmt.Errorf("set-up %d: %w", i, err)
		}
		setups = append(setups, r.setupTook.Seconds())
	}
	defer func() { r.close() }()

	logf("%s: set up %d times in %.1f s", w.Name, cfg.setups, time.Since(began).Seconds())
	p := w.plan(w, cfg.seed, cfg.warm, cfg.window)
	m, err := r.drive(p, cfg.warm, cfg.window)
	if err != nil {
		return nil, err
	}
	// setup_s is everything before the window opens. The set-up proper is
	// 10–100 ms of CPU-bound work, which moves by half with the host's speed
	// from one quarter of an hour to the next; with the warm-up, whose length
	// is fixed, two sets of runs agree on it, and set-up work that grows by
	// most of a second still shows.
	bareSetupS := median(setups)
	e2e, timedVals, win := metrics(w, m, bareSetupS+m.start.Sub(m.began).Seconds())
	logf("%s: set-up alone %.4f s (median of %d)", w.Name, bareSetupS, len(setups))
	res := &result{
		Workload: w.Name, Seed: cfg.seed, Traced: traced, WindowS: win.seconds,
		Attempted: len(win.ops), Failed: win.failed,
		EndToEnd: e2e, Timed: timedVals, Commit: summarize(win.commitMS), Sync: summarize(win.syncMS),
	}
	res.LateP99MS = percentile(sortedCopy(win.lateMS), 0.99)
	if !w.Closed && res.LateP99MS > lateLimitMS {
		res.Findings = append(res.Findings, fmt.Sprintf(
			"load generator ran late: p99 %.2f ms > %.0f ms, so latencies include generator queueing", res.LateP99MS, lateLimitMS))
	}
	for _, st := range m.ops {
		if st.failed {
			res.Violations = append(res.Violations, fmt.Sprintf("%s %s v%d failed: %s", workspaceID(st.spec.WS), st.spec.Path, st.version, st.why))
		}
	}
	res.Violations = append(res.Violations, m.problems...)
	res.Violations = append(res.Violations, r.verifyConverged()...)

	var tr *traceData
	if traced {
		if tr, err = r.collectTrace(cfg, m); err != nil {
			return nil, err
		}
	}
	if cfg.shipped == "" {
		restart, err := r.killAndVerify()
		if err != nil {
			return nil, err
		}
		res.Violations = append(res.Violations, restart.violations...)
		if traced {
			if res.PerLayer, res.Findings, err = perLayerMetrics(w, r, m, win, tr, restart, res.Findings); err != nil {
				return nil, err
			}
			res.TraceFile = tr.file
		}
	}
	logf("%s: run took %.1f s in all", w.Name, time.Since(began).Seconds())
	// Failures found after the window (convergence, durability) are failed
	// operations too: an ack that did not hold is worse than a timeout.
	res.Failed = min(res.Attempted, max(res.Failed, len(res.Violations)))
	res.Correct = len(res.Violations) == 0
	return res, nil
}

// lateLimitMS is how late the open-loop generator may run at p99 before the
// run is flagged: beyond it, the generator and not the system set the pace.
const lateLimitMS = 5.0

// Command benchmark is the repository's one performance benchmark: it runs
// the StackSync server as a child process (TCP broker, fsync'd WAL, disk
// chunk store behind the HTTP gateway), drives logical devices against it
// over real sockets, checks what they converge to, and reports named
// end-to-end and per-layer metrics. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

func logf(format string, args ...any) { fmt.Fprintf(os.Stderr, format+"\n", args...) }

func main() {
	var (
		workloadName = flag.String("workload", "all", "workload to run: meta_small, bulk_transfer, fanout, trace_mix or all")
		seed         = flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
		seconds      = flag.Int("seconds", 20, "length of the measured window")
		traceMode    = flag.String("trace", "both", "0: end-to-end metrics, wrappers off; 1: traced run, per-layer metrics; both: one after the other")
		repeat       = flag.Int("repeat", 1, "run the selection this many times and fail if two runs disagree on a bounded end-to-end metric by more than its bound")
		outDir       = flag.String("out", "", "directory for result and trace-event files (none written when empty)")
		serverBin    = flag.String("server-bin", "", "parity mode: path of a stacksync-server binary; runs fanout against it and against the benchmark's own child and prints the difference")
		workDir      = flag.String("work", ".bench_build", "scratch directory for server data; a run removes what it put there")
		smoke        = flag.Bool("smoke", false, "quick check: a 2 s window, a short warm-up and one set-up per run; the numbers mean nothing")
	)
	maybeServerChild()
	flag.Parse()
	cfg := runConfig{seed: *seed, warm: warmUp, window: time.Duration(*seconds) * time.Second,
		setups: setupRounds, workDir: *workDir, outDir: *outDir}
	if *smoke {
		cfg.warm, cfg.window, cfg.setups = 300*time.Millisecond, 2*time.Second, 1
	}
	if err := run(cfg, *workloadName, *traceMode, *repeat, *serverBin); err != nil {
		logf("benchmark: %v", err)
		os.Exit(1)
	}
}

// warmUp precedes every measured window: connections open, caches fill, the
// Go runtimes of both processes settle. Its operations are discarded.
const warmUp = 3 * time.Second

// maybeServerChild turns the process into the server child when its first
// argument says so, and never returns in that case. The benchmark and its
// tests both start the child by re-executing themselves.
func maybeServerChild() {
	if len(os.Args) < 2 || os.Args[1] != childFlag {
		return
	}
	fs := flag.NewFlagSet("server child", flag.ExitOnError)
	data := fs.String(childFlag[1:], "", "data directory")
	workspaces := fs.Int("workspaces", 1, "workspaces to create")
	traced := fs.Bool("traced", false, "install the benchmark's wrappers")
	_ = fs.Parse(os.Args[1:])
	if err := runServerChild(*data, *workspaces, *traced); err != nil {
		logf("server child: %v", err)
		os.Exit(1)
	}
	os.Exit(0)
}

// childFlag, as the first argument, selects server-child mode.
const childFlag = "-server-child"

func run(cfg runConfig, workloadName, traceMode string, repeat int, serverBin string) error {
	var selected []*workload
	if workloadName == "all" {
		selected = workloads
	} else if w := workloadByName(workloadName); w != nil {
		selected = []*workload{w}
	} else {
		return fmt.Errorf("unknown workload %q", workloadName)
	}
	var modes []bool
	switch traceMode {
	case "0":
		modes = []bool{false}
	case "1":
		modes = []bool{true}
	case "both":
		modes = []bool{false, true}
	default:
		return fmt.Errorf("-trace must be 0, 1 or both, not %q", traceMode)
	}
	if cfg.window < time.Second || repeat < 1 {
		return fmt.Errorf("-seconds and -repeat must be at least 1")
	}
	for _, dir := range []string{cfg.workDir, cfg.outDir} {
		if dir != "" {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				return err
			}
		}
	}
	if serverBin != "" {
		return parity(cfg, serverBin)
	}

	stamp := provenance()
	var rounds [][]*result
	ok := true
	for round := 0; round < repeat; round++ {
		var results []*result
		for _, w := range selected {
			for _, traced := range modes {
				res, err := runMode(w, cfg, traced)
				if err != nil {
					return fmt.Errorf("%s: %w", w.Name, err)
				}
				report(res)
				ok = ok && res.Correct
				results = append(results, res)
			}
		}
		rounds = append(rounds, results)
		if cfg.outDir != "" {
			path := filepath.Join(cfg.outDir, fmt.Sprintf("result-seed%d-run%d.json", cfg.seed, round+1))
			if err := writeJSON(path, map[string]any{"provenance": stamp, "results": results}); err != nil {
				return err
			}
		}
	}
	if repeat > 1 && !repeatable(rounds) {
		ok = false
	}

	// The last line of stdout is the machine-readable result: the contract
	// object for a single run, the whole list otherwise.
	var last any = map[string]any{"provenance": stamp, "rounds": rounds}
	if len(rounds) == 1 && len(rounds[0]) == 1 {
		last = contractLine(rounds[0][0])
	}
	line, err := json.Marshal(last)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !ok {
		return fmt.Errorf("correctness or repeatability check failed (see above)")
	}
	return nil
}

// runMode runs one workload untraced or traced. A traced run first measures
// an untraced window of the same workload and seed: it prices the wrappers,
// and its time-based metrics are what the traced invocation reports as
// "untraced.*".
func runMode(w *workload, cfg runConfig, traced bool) (*result, error) {
	if !traced {
		return runOnce(w, cfg, false)
	}
	ref, err := runOnce(w, cfg, false)
	if err != nil {
		return nil, err
	}
	res, err := runOnce(w, cfg, true)
	if err != nil {
		return nil, err
	}
	for _, d := range timed {
		res.PerLayer["untraced."+d.Name] = ref.Timed[d.Name]
	}
	// The wrappers are priced on the workload's own headline: work per second
	// where the system sets the pace, sync time where the schedule does.
	name, sign := "sync_p50_ms", 1.0
	if w.Closed {
		name, sign = "commits_per_s", -1.0
	}
	res.PerLayer["loadgen.trace_overhead_share"] = sign * (res.Timed[name] - ref.Timed[name]) / ref.Timed[name]
	res.Violations = append(res.Violations, ref.Violations...)
	res.Correct = res.Correct && ref.Correct
	return res, nil
}

// contractLine is the result object the benchmark driver reads.
func contractLine(res *result) map[string]any {
	defs, vals := endToEnd, res.EndToEnd
	if res.Traced {
		defs, vals = perLayer, res.PerLayer
	}
	metrics := make(map[string]value, len(defs))
	for _, d := range defs {
		metrics[d.Name] = value{Value: vals[d.Name], Unit: d.Unit}
	}
	return map[string]any{"correct": res.Correct, "attempted": res.Attempted, "failed": res.Failed, "metrics": metrics}
}

// report prints one run for a person.
func report(res *result) {
	kind, defs, vals := "end-to-end, wrappers off", endToEnd, res.EndToEnd
	if res.Traced {
		kind, defs, vals = "traced, per-layer", perLayer, res.PerLayer
	}
	printMetrics(fmt.Sprintf("== %s seed %d (%s, %.1f s window): %d attempted, %d failed\n   %s",
		res.Workload, res.Seed, kind, res.WindowS, res.Attempted, res.Failed, workloadByName(res.Workload).Why), defs, vals)
	if !res.Traced {
		printMetrics("  time-based, no bound:", timed, res.Timed)
	}
	logf("  %s", describeTiming("commit", res.Commit))
	logf("  %s", describeTiming("sync", res.Sync))
	logf("  generator lateness p99 %.3f ms", res.LateP99MS)
	for _, f := range res.Findings {
		logf("  finding: %s", f)
	}
	for i, v := range res.Violations {
		if i == 10 {
			logf("  ... and %d more violations", len(res.Violations)-i)
			break
		}
		logf("  VIOLATION: %s", v)
	}
	if res.TraceFile != "" {
		logf("  trace events: %s", res.TraceFile)
	}
}

// repeatable compares the bounded end-to-end metrics of every round with the first
// and reports each pair that differs by more than the metric's bound.
func repeatable(rounds [][]*result) bool {
	ok := true
	for n, round := range rounds[1:] {
		for i, res := range round {
			first := rounds[0][i]
			if res.Traced {
				continue
			}
			for _, d := range endToEnd {
				a, b := first.EndToEnd[d.Name], res.EndToEnd[d.Name]
				spread := math.Abs(a-b) / math.Abs(a)
				verdict := "ok"
				if spread > d.Bound && d.Name != "setup_s" {
					verdict, ok = "NOT REPEATABLE", false
				}
				logf("repeat %d vs 1: %-14s %-28s %12.4f vs %12.4f  spread %5.1f%% (bound %.0f%%) %s",
					n+2, res.Workload, d.Name, b, a, spread*100, d.Bound*100, verdict)
			}
		}
	}
	return ok
}

// parity runs fanout (the one-workspace workload the shipped server can
// host) against the stacksync-server binary and against the benchmark's own
// child, and prints how far the two deployments are apart.
func parity(cfg runConfig, serverBin string) error {
	w := workloadByName("fanout")
	own, err := runOnce(w, cfg, false)
	if err != nil {
		return err
	}
	cfg.shipped = serverBin
	shipped, err := runOnce(w, cfg, false)
	if err != nil {
		return err
	}
	report(own)
	report(shipped)
	logf("parity on fanout: shipped stacksync-server vs the benchmark's own assembly")
	for _, d := range endToEnd {
		a, b := own.EndToEnd[d.Name], shipped.EndToEnd[d.Name]
		logf("  %-28s own %12.4f  shipped %12.4f  %+6.1f%%", d.Name, a, b, (b-a)/a*100)
	}
	line, err := json.Marshal(map[string]any{"own": own, "shipped": shipped})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !own.Correct || !shipped.Correct {
		return fmt.Errorf("correctness check failed")
	}
	return nil
}

// provenance stamps a result with what produced it.
func provenance() map[string]any {
	commit, dirty := "unknown", false
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
		if st, err := exec.Command("git", "status", "--porcelain").Output(); err == nil {
			dirty = len(strings.TrimSpace(string(st))) > 0
		}
	}
	return map[string]any{
		"commit": commit, "dirty": dirty, "go": runtime.Version(),
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"time": time.Now().UTC().Format(time.RFC3339),
	}
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

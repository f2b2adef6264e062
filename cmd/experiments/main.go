// Command experiments regenerates the tables and figures of the paper's
// evaluation section (§5). Each experiment prints the same rows/series the
// paper reports.
//
//	experiments -run fig7b           # one experiment
//	experiments -run all -quick      # everything, reduced trace sizes
//
// Experiment ids: fig7a fig7b fig7cd table2 fig7e fig7f fig8ab fig8cde fig8f
// plus the non-figure runs: chaos (the fault soak: shipped-path and routed
// devices on one supervised fleet scaled 1→4→2 under kills, partitions and
// storage faults, closed by a failover probe whose stitched cross-instance
// trace is checked; exit 1 on a violation), ub1-multi (UB1 day-8
// peak replay over 4 routed instances with SLO attainment), matrix (the
// scenario matrix's correctness/SLO checks: mobile churn, cold-start herd,
// reconnect storm; exit 1 on a violation), trace (end-to-end observability
// demo), elastic-demo (telemetry-instrumented Fig. 8 replay), ablation.
// -admin serves /metrics, /healthz, /tracez, /queuesz, /varz, /eventz,
// /elasticz and /debug/pprof while (and after) the run executes.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"stacksync/internal/bench"
	"stacksync/internal/obs"
	"stacksync/internal/trace"
)

func main() {
	run := flag.String("run", "all", "experiment id (fig7a|fig7b|fig7cd|table2|fig7e|fig7f|fig8ab|fig8cde|fig8f|chaos|ub1-multi|matrix|trace|elastic-demo|all)")
	seed := flag.Int64("seed", 1, "PRNG seed for trace generation")
	quick := flag.Bool("quick", false, "smaller traces / shorter runs")
	admin := flag.String("admin", "", "admin endpoint address (e.g. 127.0.0.1:7072); kept serving after the run until interrupted")
	flag.Parse()

	if err := runExperiments(strings.ToLower(*run), *seed, *quick, *admin); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func runExperiments(which string, seed int64, quick bool, adminAddr string) error {
	// With -admin, the trace demo records into a shared tracer/registry that
	// the admin endpoint keeps serving after the run, so /tracez and /metrics
	// can be inspected interactively.
	var (
		tracer   *obs.Tracer
		registry *obs.Registry
		demo     *bench.ElasticDemo
	)
	if which == "elastic-demo" {
		demo = bench.NewElasticDemo(seed, quick)
	}
	if adminAddr != "" {
		tracer = obs.NewTracer()
		registry = obs.NewRegistry()
		adm := &obs.Admin{Registry: registry, Tracer: tracer}
		if demo != nil {
			// The demo's telemetry backs the admin surface: its registry,
			// scraper and flight recorder must be attached before Serve so
			// /varz, /eventz and /elasticz are live from the first sample.
			demo.AttachAdmin(adm)
		}
		srv, err := adm.Serve(adminAddr)
		if err != nil {
			return err
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "admin endpoint on http://%s (/metrics /healthz /tracez /queuesz /varz /eventz /elasticz /debug/pprof)\n", srv.Addr())
		defer func() {
			fmt.Fprintln(os.Stderr, "run finished; admin endpoint still serving — interrupt to exit")
			sig := make(chan os.Signal, 1)
			signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
			<-sig
		}()
	}
	genCfg := trace.GenConfig{Seed: seed}
	if quick {
		genCfg = trace.GenConfig{Seed: seed, InitialFiles: 5, TrainIterations: 2, Snapshots: 15, BirthMean: 4}
	}

	all := which == "all"
	ran := false
	out := os.Stdout

	if all || which == "fig7a" {
		ran = true
		bench.RunFig7a(genCfg).Print(out)
		fmt.Fprintln(out)
	}
	if all || which == "fig7b" {
		ran = true
		tr := trace.Generate(genCfg)
		res, err := bench.RunFig7b(tr)
		if err != nil {
			return err
		}
		res.Print(out)
		fmt.Fprintln(out)
	}
	if all || which == "fig7cd" || which == "fig7c" || which == "fig7d" {
		ran = true
		tr := trace.Generate(genCfg)
		res, err := bench.RunFig7cd(tr)
		if err != nil {
			return err
		}
		res.Print(out)
		fmt.Fprintln(out)
	}
	if all || which == "table2" {
		ran = true
		tr := trace.Generate(genCfg)
		res, err := bench.RunTable2(tr)
		if err != nil {
			return err
		}
		res.Print(out)
		fmt.Fprintln(out)
	}
	if all || which == "fig7e" {
		ran = true
		ops := int64(120)
		if quick {
			ops = 30
		}
		res, err := bench.RunFig7e(ops, seed)
		if err != nil {
			return err
		}
		res.Print(out)
		fmt.Fprintln(out)
	}
	if all || which == "fig7f" {
		ran = true
		reps := 5
		if quick {
			reps = 2
		}
		res, err := bench.RunFig7f(reps)
		if err != nil {
			return err
		}
		res.Print(out)
		fmt.Fprintln(out)
	}
	if all || which == "fig8ab" || which == "fig8a" || which == "fig8b" {
		ran = true
		res := bench.RunFig8ab(seed)
		res.PrintFig8a(out, 30)
		fmt.Fprintln(out)
		res.PrintFig8b(out, 30)
		fmt.Fprintln(out)
	}
	if all || which == "fig8cde" || which == "fig8c" || which == "fig8d" || which == "fig8e" {
		ran = true
		res := bench.RunFig8cde(seed)
		res.PrintFig8cde(out)
		fmt.Fprintln(out)
	}
	if all || which == "fig8f" {
		ran = true
		cfg := bench.Fig8fConfig{}
		if quick {
			cfg.Duration = 4e9 // 4s
		}
		res, err := bench.RunFig8f(cfg)
		if err != nil {
			return err
		}
		res.Print(out)
		fmt.Fprintln(out)
	}
	if which == "chaos" { // not part of "all": it is a robustness soak, not a figure
		ran = true
		cfg := bench.SoakConfig{Seed: seed}
		if quick {
			cfg.Clients, cfg.CommitsPerClient = 4, 25
			cfg.CommitGap = 30e6   // 30ms
			cfg.PhaseEvery = 250e6 // 250ms
			cfg.CrashEvery = 350e6 // 350ms
		}
		res, err := bench.RunSoak(cfg)
		if err != nil {
			return err
		}
		res.Print(out)
		fmt.Fprintln(out)
		if len(res.Violations) > 0 {
			return fmt.Errorf("chaos soak failed with %d violations", len(res.Violations))
		}
	}
	if which == "ub1-multi" { // not part of "all": routed-fleet peak replay
		ran = true
		cfg := bench.UB1MultiConfig{Seed: seed}
		if quick {
			cfg.Commits = 1200
			cfg.Duration = 2e9 // 2s
		}
		res, err := bench.RunUB1Multi(cfg)
		if err != nil {
			return err
		}
		res.Print(out)
		fmt.Fprintln(out)
		if res.Failed > 0 || res.Lost > 0 {
			return fmt.Errorf("ub1-multi broke durability: %d failed, %d lost", res.Failed, res.Lost)
		}
		if !res.SLOMet {
			return fmt.Errorf("ub1-multi missed the SLO: attainment %.4f < %.2f", res.Attainment, res.SLOObjective)
		}
	}
	if which == "matrix" { // not part of "all": scenario correctness/SLO checks
		ran = true
		res, err := bench.RunMatrix(bench.MatrixConfig{Seed: seed, Quick: quick})
		if err != nil {
			return err
		}
		res.Print(out)
		fmt.Fprintln(out)
		if v := res.Violations(); len(v) > 0 {
			return fmt.Errorf("scenario matrix failed with %d violations", len(v))
		}
	}
	if which == "trace" { // observability demo, not a paper figure
		ran = true
		if err := bench.RunTraceDemo(out, tracer, registry); err != nil {
			return err
		}
		fmt.Fprintln(out)
	}
	if which == "elastic-demo" { // instrumented Fig. 8 replay, not a separate figure
		ran = true
		demo.Run(out)
		fmt.Fprintln(out)
	}
	if all || which == "ablation" {
		ran = true
		files := 30
		if quick {
			files = 10
		}
		tres, err := bench.RunTransferAblation(files, seed)
		if err != nil {
			return err
		}
		tres.Print(out)
		fmt.Fprintln(out)

		crows, err := bench.RunCompressionAblation(trace.Generate(trace.GenConfig{
			Seed: seed, InitialFiles: 5, TrainIterations: 2, Snapshots: 12, BirthMean: 4,
		}))
		if err != nil {
			return err
		}
		fmt.Fprintln(out, "Ablation — chunk compression")
		fmt.Fprintf(out, "%-8s %14s %12s\n", "codec", "storage", "elapsed")
		for _, r := range crows {
			fmt.Fprintf(out, "%-8s %11.2f MB %12s\n", r.Compression, float64(r.StorageBytes)/(1<<20), r.Elapsed.Round(10e6))
		}
		fmt.Fprintln(out)

		drows, err := bench.RunDedupAblation(20, seed)
		if err != nil {
			return err
		}
		fmt.Fprintln(out, "Ablation — per-user deduplication (half the files are duplicates)")
		for _, r := range drows {
			fmt.Fprintf(out, "%-28s %11.2f MB uploaded\n", r.Scenario, float64(r.StorageBytes)/(1<<20))
		}
		fmt.Fprintln(out)

		bench.PrintPolicyAblation(out, bench.RunPolicyAblation(seed))
		fmt.Fprintln(out)
	}
	if !ran {
		return fmt.Errorf("unknown experiment %q", which)
	}
	return nil
}

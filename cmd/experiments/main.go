// Command experiments regenerates the tables and figures of the paper's
// evaluation section (§5). Each experiment prints the same rows/series the
// paper reports.
//
//	experiments -run fig7b           # one experiment
//	experiments -run all -quick      # everything, reduced trace sizes
//
// Experiment ids: fig7a fig7b fig7cd table2 fig7e fig7f fig8ab fig8cde fig8f
// plus the non-figure runs: chaos (the fault soak: shipped-path devices on
// one supervised fleet scaled 1→4→2 under kills, partitions and storage
// faults, closed by a traced commit after a kill whose cross-instance
// trace is checked; exit 1 on a violation), ub1-multi (UB1
// day-8 peak replay over 4 instances with SLO attainment), matrix (the
// scenario matrix's correctness/SLO checks: mobile churn, cold-start herd,
// reconnect storm; exit 1 on a violation) and trace (end-to-end
// observability demo). An unknown id exits 1 before anything runs. -admin
// serves the admin endpoints (README's table) while (and after) the run
// executes.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"stacksync/internal/bench"
	"stacksync/internal/obs"
	"stacksync/internal/trace"
)

// runEnv is what every experiment may read.
type runEnv struct {
	seed  int64
	quick bool
	gen   trace.GenConfig
	// tracer and registry are shared with the -admin endpoint (nil without
	// it); the trace demo records into them.
	tracer   *obs.Tracer
	registry *obs.Registry
}

// experiment is one -run target.
type experiment struct {
	ids   []string // the id, then its aliases
	inAll bool     // part of -run all (the paper's figures)
	run   func(out io.Writer, env runEnv) error
}

var experiments = []experiment{
	{ids: []string{"fig7a"}, inAll: true, run: func(out io.Writer, env runEnv) error {
		bench.RunFig7a(env.gen).Print(out)
		return nil
	}},
	{ids: []string{"fig7b"}, inAll: true, run: func(out io.Writer, env runEnv) error {
		res, err := bench.RunFig7b(trace.Generate(env.gen))
		if err != nil {
			return err
		}
		res.Print(out)
		return nil
	}},
	{ids: []string{"fig7cd", "fig7c", "fig7d"}, inAll: true, run: func(out io.Writer, env runEnv) error {
		res, err := bench.RunFig7cd(trace.Generate(env.gen))
		if err != nil {
			return err
		}
		res.Print(out)
		return nil
	}},
	{ids: []string{"table2"}, inAll: true, run: func(out io.Writer, env runEnv) error {
		res, err := bench.RunTable2(trace.Generate(env.gen))
		if err != nil {
			return err
		}
		res.Print(out)
		return nil
	}},
	{ids: []string{"fig7e"}, inAll: true, run: func(out io.Writer, env runEnv) error {
		ops := int64(120)
		if env.quick {
			ops = 30
		}
		res, err := bench.RunFig7e(ops, env.seed)
		if err != nil {
			return err
		}
		res.Print(out)
		return nil
	}},
	{ids: []string{"fig7f"}, inAll: true, run: func(out io.Writer, env runEnv) error {
		reps := 5
		if env.quick {
			reps = 2
		}
		res, err := bench.RunFig7f(reps)
		if err != nil {
			return err
		}
		res.Print(out)
		return nil
	}},
	{ids: []string{"fig8ab", "fig8a", "fig8b"}, inAll: true, run: func(out io.Writer, env runEnv) error {
		res := bench.RunFig8ab(env.seed)
		res.PrintFig8a(out, 30)
		fmt.Fprintln(out)
		res.PrintFig8b(out, 30)
		return nil
	}},
	{ids: []string{"fig8cde", "fig8c", "fig8d", "fig8e"}, inAll: true, run: func(out io.Writer, env runEnv) error {
		bench.RunFig8cde(env.seed).PrintFig8cde(out)
		return nil
	}},
	{ids: []string{"fig8f"}, inAll: true, run: func(out io.Writer, env runEnv) error {
		cfg := bench.Fig8fConfig{}
		if env.quick {
			cfg.Duration = 4e9 // 4s
		}
		res, err := bench.RunFig8f(cfg)
		if err != nil {
			return err
		}
		res.Print(out)
		return nil
	}},
	// A robustness soak, not a figure.
	{ids: []string{"chaos"}, run: func(out io.Writer, env runEnv) error {
		cfg := bench.SoakConfig{Seed: env.seed}
		if env.quick {
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
		if len(res.Violations) > 0 {
			return fmt.Errorf("chaos soak failed with %d violations", len(res.Violations))
		}
		return nil
	}},
	// Multi-instance peak replay.
	{ids: []string{"ub1-multi"}, run: func(out io.Writer, env runEnv) error {
		cfg := bench.UB1MultiConfig{Seed: env.seed}
		if env.quick {
			cfg.Commits = 1200
			cfg.Duration = 2e9 // 2s
		}
		res, err := bench.RunUB1Multi(cfg)
		if err != nil {
			return err
		}
		res.Print(out)
		if res.Failed > 0 || res.Lost > 0 {
			return fmt.Errorf("ub1-multi broke durability: %d failed, %d lost", res.Failed, res.Lost)
		}
		if !res.SLOMet {
			return fmt.Errorf("ub1-multi missed the SLO: attainment %.4f < %.2f", res.Attainment, res.SLOObjective)
		}
		return nil
	}},
	// Scenario correctness/SLO checks.
	{ids: []string{"matrix"}, run: func(out io.Writer, env runEnv) error {
		res, err := bench.RunMatrix(bench.MatrixConfig{Seed: env.seed, Quick: env.quick})
		if err != nil {
			return err
		}
		res.Print(out)
		if v := res.Violations(); len(v) > 0 {
			return fmt.Errorf("scenario matrix failed with %d violations", len(v))
		}
		return nil
	}},
	// Observability demo, not a paper figure.
	{ids: []string{"trace"}, run: func(out io.Writer, env runEnv) error {
		return bench.RunTraceDemo(out, env.tracer, env.registry)
	}},
}

func main() {
	ids := make([]string, 0, len(experiments)+1)
	for _, e := range experiments {
		ids = append(ids, e.ids[0])
	}
	ids = append(ids, "all")
	run := flag.String("run", "all", "experiment id ("+strings.Join(ids, "|")+")")
	seed := flag.Int64("seed", 1, "PRNG seed for trace generation")
	quick := flag.Bool("quick", false, "smaller traces / shorter runs")
	admin := flag.String("admin", "", "admin endpoint address (e.g. 127.0.0.1:7072); kept serving after the run until interrupted")
	flag.Parse()

	if err := runExperiments(strings.ToLower(*run), *seed, *quick, *admin); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

// selectExperiments resolves a -run id; none means the id is unknown.
func selectExperiments(which string) []experiment {
	var sel []experiment
	for _, e := range experiments {
		for _, id := range e.ids {
			if id == which || (which == "all" && e.inAll) {
				sel = append(sel, e)
				break
			}
		}
	}
	return sel
}

func runExperiments(which string, seed int64, quick bool, adminAddr string) error {
	sel := selectExperiments(which)
	if len(sel) == 0 {
		return fmt.Errorf("unknown experiment %q", which)
	}
	env := runEnv{seed: seed, quick: quick, gen: trace.GenConfig{Seed: seed}}
	if quick {
		env.gen = trace.GenConfig{Seed: seed, InitialFiles: 5, TrainIterations: 2, Snapshots: 15, BirthMean: 4}
	}
	// With -admin, the trace demo records into a shared tracer/registry that
	// the admin endpoint keeps serving after the run, so /tracez and /metrics
	// can be inspected interactively.
	if adminAddr != "" {
		env.tracer = obs.NewTracer()
		env.registry = obs.NewRegistry()
		srv, err := (&obs.Admin{Registry: env.registry, Tracer: env.tracer}).Serve(adminAddr)
		if err != nil {
			return err
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "admin endpoint on http://%s\n", srv.Addr())
	}

	out := os.Stdout
	var err error
	for _, e := range sel {
		if err = e.run(out, env); err != nil {
			break
		}
		fmt.Fprintln(out)
	}

	if adminAddr != "" {
		if err != nil {
			fmt.Fprintln(os.Stderr, "run failed:", err)
		}
		fmt.Fprintln(os.Stderr, "run finished; admin endpoint still serving — interrupt to exit")
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		<-sig
	}
	return err
}

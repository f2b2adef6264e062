package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"
)

// The smoke tests start the server child by re-executing the test binary.
func TestMain(m *testing.M) {
	maybeServerChild()
	os.Exit(m.Run())
}

func TestSupportedTailNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{99, 0}, {100, 0.90}, {199, 0.90}, {200, 0.95}, {999, 0.95}, {1000, 0.99}, {10000, 0.999},
	} {
		if got := supportedTail(c.n); got != c.want {
			t.Errorf("supportedTail(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	s := summarize(xs)
	if s.N != 200 || s.P50 != 100 || s.TailQ != 0.95 || s.Tail != 190 {
		t.Errorf("summarize(1..200) = %+v, want n=200 p50=100 p95=190", s)
	}
	if s := summarize(xs[:50]); s.TailQ != 0 || !math.IsNaN(s.Tail) {
		t.Errorf("50 samples support no tail percentile, got %+v", s)
	}
}

func TestTrimmedMeanIgnoresOneStall(t *testing.T) {
	rates := []float64{10, 10, 10, 10, 10, 10, 10, 10, 10, 0}
	if got := trimmedMean(rates, 0.1); got != 10 {
		t.Errorf("trimmedMean = %v, want 10", got)
	}
	if got := trimmedMean([]float64{3}, 0.1); got != 3 {
		t.Errorf("trimmedMean of one sample = %v, want 3", got)
	}
}

func TestSelfTimeSubtractsTheUnionOfChildren(t *testing.T) {
	parent := span{Start: 100, End: 200}
	children := []span{
		{Start: 110, End: 130},
		{Start: 120, End: 150}, // overlaps the first: the union is 110..150
		{Start: 190, End: 250}, // sticks out: only 190..200 counts
		{Start: 10, End: 50},   // outside: counts for nothing
	}
	if got, want := selfTime(parent, children), time.Duration(100-40-10); got != want {
		t.Errorf("selfTime = %d, want %d", got, want)
	}
	if got := selfTime(parent, nil); got != 100 {
		t.Errorf("selfTime without children = %d, want 100", got)
	}
}

func TestLinkParentsUsesDeviceAndContainment(t *testing.T) {
	spans := []span{
		{Name: "client.put_file", Dev: 1, Start: 100, End: 200, Parent: -1},
		{Name: "chunker.split", Dev: 1, Start: 105, End: 120, Parent: -1},
		{Name: "chunker.split", Dev: 2, Start: 105, End: 120, Parent: -1}, // another device
		{Name: "mq.publish", Dev: 1, Start: 250, End: 260, Parent: -1},    // after the parent ended
		{Name: "objstore.get_multi", Dev: 1, Start: 110, End: 115, Parent: -1},
	}
	children := linkParents(spans, "client.put_file", putFileChildren)
	if len(children[0]) != 1 || children[0][0] != 1 {
		t.Fatalf("children of the put_file span = %v, want [1]", children)
	}
	for i, want := range []int{-1, 0, -1, -1, -1} {
		if spans[i].Parent != want {
			t.Errorf("span %d parent = %d, want %d", i, spans[i].Parent, want)
		}
	}
}

// An open-loop operation is timed from the instant it was due, and how late
// the generator took it up is reported beside it.
func TestOpenLoopTimesFromDueInstant(t *testing.T) {
	start := time.Unix(1000, 0)
	due := start.Add(2 * time.Second)
	st := &opState{
		t0: due, sent: due.Add(30 * time.Millisecond), late: 30 * time.Millisecond,
		commitAt: due.Add(40 * time.Millisecond), syncAt: due.Add(50 * time.Millisecond), bytes: 1000,
	}
	slow := &opState{t0: due, commitAt: due.Add(time.Second), syncAt: due.Add(2 * time.Second)}
	failed := &opState{t0: due, failed: true}
	warm := &opState{t0: start.Add(-time.Second), commitAt: start.Add(time.Second), syncAt: start.Add(time.Second)}
	m := &measurement{start: start, end: start.Add(10 * time.Second), ops: []*opState{st, slow, failed, warm}}
	win := m.window()
	if len(win.ops) != 3 || win.failed != 1 {
		t.Fatalf("window has %d ops, %d failed; want 3 and 1 (the warm-up op is not measured)", len(win.ops), win.failed)
	}
	if win.commitMS[0] != 40 || win.syncMS[0] != 50 {
		t.Errorf("latencies %v / %v, want 40 and 50 ms from the due instant", win.commitMS[0], win.syncMS[0])
	}
	if len(win.lateMS) != 1 || win.lateMS[0] != 30 {
		t.Errorf("lateness %v, want [30]", win.lateMS)
	}
	if win.inSLA != 1 {
		t.Errorf("%d ops inside the SLA, want 1: a failed op and a 2 s sync both miss it", win.inSLA)
	}
	if len(win.done) != 3 {
		t.Errorf("%d completions in the window, want 3 (the warm-up op finished inside it)", len(win.done))
	}
}

func TestScheduleOffersTheSameCountForEverySeed(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		p := workloadByName("fanout").plan(workloadByName("fanout"), seed, 3*time.Second, 20*time.Second)
		inWindow := 0
		for i, op := range p.open {
			if i > 0 && op.Due < p.open[i-1].Due {
				t.Fatalf("seed %d: schedule not sorted at %d", seed, i)
			}
			if op.Due >= 0 {
				inWindow++
			}
			if op.Due < -3*time.Second || op.Due >= 20*time.Second {
				t.Fatalf("seed %d: op due at %v, outside the run", seed, op.Due)
			}
		}
		if inWindow != 800 || len(p.open) != 920 {
			t.Errorf("seed %d: %d ops in the window of %d, want 800 of 920", seed, inWindow, len(p.open))
		}
	}
}

func TestSameSeedSameOps(t *testing.T) {
	list := func(w *workload, seed int64) []opSpec {
		p := w.plan(w, seed, 3*time.Second, 20*time.Second)
		if !w.Closed {
			return p.open
		}
		var ops []opSpec
		for ws := 0; ws < w.Workspaces; ws++ {
			for i := 0; i < 50; i++ {
				ops = append(ops, p.closed(ws, i))
			}
		}
		return ops
	}
	for _, w := range workloads {
		a, b, other := opListHash(list(w, 7)), opListHash(list(w, 7)), opListHash(list(w, 8))
		if a != b {
			t.Errorf("%s: seed 7 gave two different op lists", w.Name)
		}
		if a == other {
			t.Errorf("%s: seeds 7 and 8 gave the same op list", w.Name)
		}
	}
}

func TestContentIsDeterministicAndUpdatesTouchWhatTheySay(t *testing.T) {
	w := workloadByName("bulk_transfer")
	p := w.plan(w, 1, 0, 0)
	add, over, pre := p.closed(0, 0), p.closed(0, 1), p.closed(0, 3)
	base, _ := p.content(add, nil)
	again, _ := p.content(add, nil)
	if len(base) != bulkFileBytes || string(base) != string(again) {
		t.Fatal("ADD content is not a deterministic file of bulkFileBytes")
	}
	changed, _ := p.content(over, base)
	if diff := chunksChanged(base, changed); diff != 1 || len(changed) != len(base) {
		t.Errorf("overwrite changed %d chunks and the length to %d, want 1 chunk and the same length", diff, len(changed))
	}
	shifted, _ := p.content(pre, base)
	if diff := chunksChanged(base, shifted); diff != len(base)/chunkSize {
		t.Errorf("prepend changed %d chunks, want all %d", diff, len(base)/chunkSize)
	}
}

const chunkSize = 512 * kib

// chunksChanged counts the fixed 512 KB chunks of a that b does not hold at
// the same offset.
func chunksChanged(a, b []byte) int {
	n := 0
	for off := 0; off < len(a); off += chunkSize {
		end := min(off+chunkSize, len(a))
		if end > len(b) || string(a[off:end]) != string(b[off:end]) {
			n++
		}
	}
	return n
}

// BENCHMARK.json at the root of the repository must list exactly the
// workloads and metrics this package reports.
func TestBenchmarkJSONMatchesTheCode(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &decl); err != nil {
		t.Fatal(err)
	}
	if len(decl.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the code has %d", len(decl.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if decl.Workloads[i].Name != w.Name || decl.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: %+v in BENCHMARK.json, %q (%q) in the code", i, decl.Workloads[i], w.Name, w.Why)
		}
	}
	if len(decl.EndToEnd) != len(endToEnd) || len(decl.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d+%d metrics, the code has %d+%d", len(decl.EndToEnd), len(decl.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, d := range endToEnd {
		got := decl.EndToEnd[i]
		if got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better || got.Bound != d.Bound {
			t.Errorf("end-to-end metric %d: %+v in BENCHMARK.json, %+v in the code", i, got, d)
		}
	}
	for i, d := range perLayer {
		got := decl.PerLayer[i]
		if got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better {
			t.Errorf("per-layer metric %d: %+v in BENCHMARK.json, %+v in the code", i, got, d)
		}
	}
}

// A 1.5 s pass of every workload against the real server child: everything
// must converge, survive kill -9, and yield every end-to-end metric.
func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("starts server processes")
	}
	cfg := runConfig{seed: 1, warm: 300 * time.Millisecond, window: 1500 * time.Millisecond, setups: 1, workDir: t.TempDir()}
	for _, w := range workloads {
		res, err := runOnce(w, cfg, false)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if !res.Correct || res.Attempted == 0 {
			t.Errorf("%s: correct=%v attempted=%d violations=%v", w.Name, res.Correct, res.Attempted, res.Violations)
		}
		for _, d := range endToEnd {
			if v, ok := res.EndToEnd[d.Name]; !ok || math.IsNaN(v) || v <= 0 {
				t.Errorf("%s: %s = %v, want a positive number", w.Name, d.Name, v)
			}
		}
	}
}

// The traced run must yield every per-layer metric, from spans of both
// processes and from the probes.
func TestSmokeTracedRun(t *testing.T) {
	if testing.Short() {
		t.Skip("starts server processes")
	}
	w := workloadByName("bulk_transfer")
	cfg := runConfig{seed: 1, warm: 300 * time.Millisecond, window: 1500 * time.Millisecond, setups: 1, workDir: t.TempDir(), outDir: t.TempDir()}
	res, err := runMode(w, cfg, true)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct {
		t.Errorf("violations: %v", res.Violations)
	}
	for _, d := range perLayer {
		if v, ok := res.PerLayer[d.Name]; !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("%s = %v, want a number", d.Name, v)
		}
	}
	if _, err := os.Stat(res.TraceFile); err != nil {
		t.Errorf("trace-event file: %v", err)
	}
}

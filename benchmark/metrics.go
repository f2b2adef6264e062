package main

import (
	"fmt"
	"time"
)

// metricDef names one metric: its unit, which way is better, and for
// end-to-end metrics the share of the parent's median by which it may
// worsen before a change counts as a regression. BENCHMARK.json lists the
// same definitions; a test keeps the two in step.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
	// Moves says, for a per-layer metric, which end-to-end metric it should
	// move and on which workload.
	Moves string
}

// endToEnd are the bounded metrics: what a commit costs in bytes on the
// wire, bytes stored, system calls and bytes written by the server, and
// whether syncs stay inside the SLA. They are counts and shares, which repeat
// within a few percent on a host whose speed does not; see README, "Why the
// bounded metrics are counts".
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "sla_share", Unit: "ratio", Better: "higher", Bound: 0.05},
	{Name: "control_bytes_per_commit", Unit: "B", Better: "lower", Bound: 0.05},
	{Name: "storage_bytes_per_user_byte", Unit: "ratio", Better: "lower", Bound: 0.10},
	{Name: "server_io_calls_per_commit", Unit: "count", Better: "lower", Bound: 0.15},
	{Name: "server_disk_bytes_per_commit", Unit: "B", Better: "lower", Bound: 0.15},
}

// timed are the time-based metrics of an untraced window: the paper's own
// numbers. Every run measures and prints them; the driver receives them as
// per-layer metrics ("untraced." + name) of the traced invocation, which
// measures an untraced window first. They carry no bound because on this
// class of host they cannot honour one.
var timed = []metricDef{
	{Name: "commits_per_s", Unit: "1/s", Better: "higher"},
	{Name: "sync_MBps", Unit: "MB/s", Better: "higher"},
	{Name: "commit_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "commit_p95_ms", Unit: "ms", Better: "lower"},
	{Name: "sync_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "sync_p95_ms", Unit: "ms", Better: "lower"},
	{Name: "cpu_s_per_kcommit", Unit: "s", Better: "lower"},
	{Name: "server_rss_mb", Unit: "MB", Better: "lower"},
}

// value is one reported number.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// window is the part of a measurement that falls inside the measured window.
type window struct {
	seconds   float64
	ops       []*opState // t0 inside the window
	done      []*opState // completed inside the window, failed ones excluded
	commitMS  []float64
	syncMS    []float64
	lateMS    []float64
	userBytes float64
	failed    int
	inSLA     int
}

func (m *measurement) window() window {
	w := window{seconds: m.end.Sub(m.start).Seconds()}
	for _, st := range m.ops {
		if at := st.finishedAt(); !st.failed && !at.Before(m.start) && at.Before(m.end) {
			w.done = append(w.done, st)
		}
		if st.t0.Before(m.start) || !st.t0.Before(m.end) {
			continue
		}
		w.ops = append(w.ops, st)
		w.userBytes += float64(st.bytes)
		if st.late > 0 {
			w.lateMS = append(w.lateMS, ms(st.late))
		}
		if st.failed {
			w.failed++
			continue
		}
		w.commitMS = append(w.commitMS, ms(st.commitAt.Sub(st.t0)))
		sync := st.syncAt.Sub(st.t0)
		w.syncMS = append(w.syncMS, ms(sync))
		if sync <= slaLimit {
			w.inSLA++
		}
	}
	return w
}

// finishedAt is when the op had reached its writer and every peer.
func (st *opState) finishedAt() time.Time {
	if st.commitAt.After(st.syncAt) {
		return st.commitAt
	}
	return st.syncAt
}

// rate is work per second over the window. A closed loop reports the mean of
// the per-second rates with the lowest and highest tenth of the seconds left
// out: one stall does not move it, and unlike the median of whole-number
// counts it resolves a change of a few percent at ten commits a second. An
// open loop's rate follows its schedule, so it reports the plain average.
func (m *measurement) rate(w window, closed bool, weight func(*opState) float64) float64 {
	at := make([]time.Time, len(w.done))
	wt := make([]float64, len(w.done))
	var total float64
	for i, st := range w.done {
		at[i], wt[i] = st.finishedAt(), weight(st)
		total += wt[i]
	}
	if closed {
		return trimmedMean(windowRates(m.start, int(w.seconds), at, wt), 0.1)
	}
	return total / w.seconds
}

// metrics turns a measurement into the bounded end-to-end metrics and the
// time-based ones.
func metrics(w *workload, m *measurement, setupS float64) (e2e, timedVals map[string]float64, win window) {
	win = m.window()
	commit, sync := sortedCopy(win.commitMS), sortedCopy(win.syncMS)
	commits := float64(len(win.done))
	e2e = map[string]float64{
		"setup_s":                      setupS,
		"sla_share":                    float64(win.inSLA) / float64(max(len(win.ops), 1)),
		"control_bytes_per_commit":     float64(m.after.brokerBytes-m.before.brokerBytes) / commits,
		"storage_bytes_per_user_byte":  float64(m.after.storage.Total()-m.before.storage.Total()) / win.userBytes,
		"server_io_calls_per_commit":   float64(m.after.ioCalls-m.before.ioCalls) / commits,
		"server_disk_bytes_per_commit": float64(m.after.diskBytes-m.before.diskBytes) / commits,
	}
	timedVals = map[string]float64{
		"commits_per_s":     m.rate(win, w.Closed, func(*opState) float64 { return 1 }),
		"sync_MBps":         m.rate(win, w.Closed, func(st *opState) float64 { return float64(st.bytes) / 1e6 }),
		"commit_p50_ms":     percentile(commit, 0.50),
		"commit_p95_ms":     percentile(commit, 0.95),
		"sync_p50_ms":       percentile(sync, 0.50),
		"sync_p95_ms":       percentile(sync, 0.95),
		"cpu_s_per_kcommit": (m.after.cpuS - m.before.cpuS) / commits * 1000,
		"server_rss_mb":     m.rssMB,
	}
	return e2e, timedVals, win
}

// printMetrics writes name, value and unit of every metric in defs order,
// and for a per-layer metric what it should move.
func printMetrics(title string, defs []metricDef, vals map[string]float64) {
	logf("%s", title)
	for _, d := range defs {
		v, ok := vals[d.Name]
		switch {
		case !ok:
		case d.Moves == "":
			logf("  %-32s %14.4f %s", d.Name, v, d.Unit)
		default:
			logf("  %-32s %14.4f %-6s -> %s", d.Name, v, d.Unit, d.Moves)
		}
	}
}

func describeTiming(name string, t timing) string {
	if t.TailQ == 0 {
		return fmt.Sprintf("%s: p50 %.2f ms (n=%d, too few samples for a tail percentile)", name, t.P50, t.N)
	}
	return fmt.Sprintf("%s: p50 %.2f ms, p%g %.2f ms (n=%d)", name, t.P50, t.TailQ*100, t.Tail, t.N)
}

package obs

import (
	"strings"
	"testing"
	"time"
)

var stitchBase = time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)

func at(ms int) time.Time { return stitchBase.Add(time.Duration(ms) * time.Millisecond) }

func fleetSpan(id, parent, name, instance string, startMS, endMS int) Span {
	return Span{
		TraceID: "T", SpanID: id, ParentID: parent, Name: name,
		Instance: instance, Start: at(startMS), End: at(endMS),
	}
}

func TestStitchRepairsCrossInstanceClockSkew(t *testing.T) {
	// Instance "b"'s clock runs 40ms behind the client "c": the handler span
	// it records appears to start before the publish span that caused it.
	spans := []Span{
		fleetSpan("root", "", "client.commit", "c", 0, 100),
		fleetSpan("pub", "root", "omq.call.CommitRequest", "c", 10, 90),
		fleetSpan("handle", "pub", "omq.handle.CommitRequest", "b", -30, 20), // skewed
		fleetSpan("db", "handle", "metastore.commitBatch", "b", -25, 10),     // same skew
	}
	st := Stitch("T", spans)
	if st.Partial {
		t.Fatal("complete trace marked partial")
	}
	if len(st.Instances) != 2 || st.Instances[0] != "b" || st.Instances[1] != "c" {
		t.Fatalf("instances = %v", st.Instances)
	}
	if d := st.SkewAdjust["b"]; d != 40*time.Millisecond {
		t.Fatalf("skew adjust for b = %v, want 40ms", d)
	}
	byID := map[string]Span{}
	for _, sp := range st.Spans {
		byID[sp.SpanID] = sp
	}
	if h, p := byID["handle"], byID["pub"]; h.Start.Before(p.Start) {
		t.Fatalf("causality not repaired: handle %v before pub %v", h.Start, p.Start)
	}
	// Intra-instance ordering on b preserved: db still starts 5ms after handle.
	if got := byID["db"].Start.Sub(byID["handle"].Start); got != 5*time.Millisecond {
		t.Fatalf("intra-instance gap changed: %v", got)
	}
	// The critical path must cross the process boundary with attribution.
	segs := CriticalPathDeep(st.Spans)
	insts := map[string]bool{}
	for _, s := range segs {
		insts[s.Instance] = true
	}
	if !insts["c"] || !insts["b"] {
		t.Fatalf("critical path should span both instances: %+v", segs)
	}
}

func TestStitchOverlappingRetrySpans(t *testing.T) {
	// Two call attempts overlap: attempt 1's timeout fires after attempt 2
	// already started on another instance. Both must survive stitching and
	// the critical path must follow the attempt whose subtree ends latest.
	spans := []Span{
		fleetSpan("root", "", "client.commit", "c", 0, 200),
		fleetSpan("sync", "root", "client.sync", "c", 5, 195),
		fleetSpan("a1", "sync", "omq.call.CommitRequest", "c", 5, 110), // timed out
		fleetSpan("a2", "sync", "omq.call.CommitRequest", "c", 100, 190),
		fleetSpan("h2", "a2", "omq.handle.CommitRequest", "b", 120, 180),
	}
	st := Stitch("T", spans)
	if len(st.Spans) != 5 {
		t.Fatalf("overlapping spans lost: %d", len(st.Spans))
	}
	segs := CriticalPathDeep(st.Spans)
	var names []string
	for _, s := range segs {
		names = append(names, s.Name)
	}
	joined := strings.Join(names, ">")
	if !strings.Contains(joined, "omq.call.CommitRequest>omq.handle.CommitRequest") {
		t.Fatalf("critical path should descend through attempt 2 into the handler: %v", joined)
	}
	// Sum of segments equals the root's full latency.
	var total time.Duration
	for _, s := range segs {
		total += s.Self
	}
	if total != 200*time.Millisecond {
		t.Fatalf("critical path total = %v, want 200ms", total)
	}
}

func TestStitchPartialTraceFromDeadInstance(t *testing.T) {
	// Instance "a" died mid-commit: its handle span (parent of the metastore
	// span scraped earlier) was never recorded. The orphan must render as an
	// extra root, the trace must be marked Partial, and nothing may panic.
	spans := []Span{
		fleetSpan("root", "", "client.commit", "c", 0, 300),
		fleetSpan("a1", "root", "omq.call.CommitRequest", "c", 5, 150),
		fleetSpan("db", "gone-handle", "metastore.commitBatch", "a", 30, 60), // orphan
		fleetSpan("a2", "root", "omq.call.CommitRequest", "c", 160, 290),
		fleetSpan("h2", "a2", "omq.handle.CommitRequest", "b", 170, 280),
	}
	st := Stitch("T", spans)
	if !st.Partial {
		t.Fatal("trace with missing parent not marked partial")
	}
	var buf strings.Builder
	WriteStitched(&buf, st) // must not panic
	out := buf.String()
	if !strings.Contains(out, "PARTIAL") {
		t.Fatalf("partial warning missing:\n%s", out)
	}
	if !strings.Contains(out, "metastore.commitBatch") {
		t.Fatalf("orphan span not rendered:\n%s", out)
	}
	if CriticalPathDeep(st.Spans) == nil {
		t.Fatal("critical path empty on partial trace")
	}
}

func TestStitchDeduplicatesRepeatedScrapes(t *testing.T) {
	sp := fleetSpan("s1", "", "x", "a", 0, 10)
	st := Stitch("T", []Span{sp, sp, sp})
	if len(st.Spans) != 1 {
		t.Fatalf("duplicate spans survived: %d", len(st.Spans))
	}
}

func TestStitchEmpty(t *testing.T) {
	st := Stitch("T", nil)
	if len(st.Spans) != 0 || st.Partial {
		t.Fatalf("empty stitch wrong: %+v", st)
	}
	var buf strings.Builder
	WriteStitched(&buf, st) // must not panic
}

func TestStitchSkewChainAcrossThreeInstances(t *testing.T) {
	// a → b → c where each downstream clock is progressively behind; one pass
	// fixes b against a, a later pass must fix c against the shifted b.
	spans := []Span{
		fleetSpan("ra", "", "hop.a", "a", 0, 100),
		fleetSpan("rb", "ra", "hop.b", "b", -20, 50),
		fleetSpan("rc", "rb", "hop.c", "c", -60, 10),
	}
	st := Stitch("T", spans)
	byID := map[string]Span{}
	for _, sp := range st.Spans {
		byID[sp.SpanID] = sp
	}
	if byID["rb"].Start.Before(byID["ra"].Start) {
		t.Fatal("b not aligned to a")
	}
	if byID["rc"].Start.Before(byID["rb"].Start) {
		t.Fatal("c not aligned to shifted b")
	}
}

package obs

import (
	"context"
	"strings"
	"testing"
	"time"
)

func TestTraceContextPropagation(t *testing.T) {
	root := NewTraceContext()
	if !root.Valid() {
		t.Fatal("fresh context invalid")
	}
	child := root.Child()
	if child.TraceID != root.TraceID || child.ParentID != root.SpanID || child.SpanID == root.SpanID {
		t.Fatalf("bad child derivation: %+v from %+v", child, root)
	}

	h := map[string]string{}
	child.Inject(h)
	got, ok := ExtractTraceContext(h)
	if !ok || got.TraceID != child.TraceID || got.SpanID != child.SpanID {
		t.Fatalf("inject/extract round trip: %+v ok=%v", got, ok)
	}

	if _, ok := ExtractTraceContext(nil); ok {
		t.Fatal("extract from nil headers succeeded")
	}
	if _, ok := ExtractTraceContext(map[string]string{}); ok {
		t.Fatal("extract from empty headers succeeded")
	}

	ctx := ContextWith(context.Background(), child)
	if FromContext(ctx) != child {
		t.Fatal("context round trip lost the trace context")
	}
	if FromContext(context.Background()).Valid() {
		t.Fatal("bare context carries a trace")
	}
	// Invalid contexts never poison a ctx chain.
	if ContextWith(context.Background(), TraceContext{}) != context.Background() {
		t.Fatal("invalid context was stored")
	}
}

// TestNilTracerInert: a nil *Tracer (tracing disabled) must make every call
// path a no-op, including handles and derived spans.
func TestNilTracerInert(t *testing.T) {
	var tr *Tracer
	if tr.Enabled() {
		t.Fatal("nil tracer enabled")
	}
	if tr.Sink() != nil {
		t.Fatal("nil tracer has a sink")
	}
	h := tr.StartRoot("x")
	if h != nil {
		t.Fatal("nil tracer returned a handle")
	}
	h.End() // must not panic
	if h.Context().Valid() {
		t.Fatal("nil handle has a context")
	}
	if tr.StartChild(NewTraceContext(), "x") != nil {
		t.Fatal("nil tracer started a child")
	}
	if tr.StartFromContext(context.Background(), "x") != nil {
		t.Fatal("nil tracer started from context")
	}
	tr.RecordChild(NewTraceContext(), "x", time.Now(), time.Now()) // must not panic
}

// TestUntracedParent: an enabled tracer still skips spans whose parent is not
// part of a trace, so untraced request paths stay untraced end to end.
func TestUntracedParent(t *testing.T) {
	tr := NewTracer()
	if tr.StartChild(TraceContext{}, "x") != nil {
		t.Fatal("child span without a parent trace")
	}
	tr.RecordChild(TraceContext{}, "x", time.Now(), time.Now())
	if got := tr.Sink().Recorded(); got != 0 {
		t.Fatalf("%d spans recorded under an invalid parent", got)
	}
}

func TestTracerRecordsTree(t *testing.T) {
	now := time.Unix(1000, 0)
	tr := NewTracer(WithNowFunc(func() time.Time { now = now.Add(10 * time.Millisecond); return now }))
	root := tr.StartRoot("root")
	child := tr.StartChild(root.Context(), "child")
	child.End()
	tr.RecordChild(child.Context(), "dwell", time.Unix(999, 0), time.Unix(999, int64(5*time.Millisecond)))
	root.End()

	spans := tr.Sink().Trace(root.Context().TraceID)
	if len(spans) != 3 {
		t.Fatalf("recorded %d spans, want 3", len(spans))
	}
	byName := map[string]Span{}
	for _, sp := range spans {
		byName[sp.Name] = sp
	}
	if byName["child"].ParentID != byName["root"].SpanID {
		t.Fatal("child not linked to root")
	}
	if byName["dwell"].ParentID != byName["child"].SpanID {
		t.Fatal("recorded child not linked to its parent")
	}
	if d := byName["child"].Duration(); d != 10*time.Millisecond {
		t.Fatalf("child duration = %v, want 10ms (virtual clock)", d)
	}
}

func TestRecordChildClampsEnd(t *testing.T) {
	tr := NewTracer()
	parent := NewTraceContext()
	start := time.Unix(2000, 0)
	tr.RecordChild(parent, "skewed", start, start.Add(-time.Second))
	spans := tr.Sink().Trace(parent.TraceID)
	if len(spans) != 1 || spans[0].Duration() != 0 {
		t.Fatalf("skewed span not clamped: %+v", spans)
	}
}

func TestSinkRingEviction(t *testing.T) {
	// Capacity 16 = one slot per shard; all spans of one trace land in one
	// shard, so the second span of a trace evicts the first.
	sink := NewSpanSink(16)
	tc := NewTraceContext()
	for i := 0; i < 3; i++ {
		sink.Record(Span{TraceID: tc.TraceID, SpanID: newSpanID(), Name: "s"})
	}
	if got := sink.Recorded(); got != 3 {
		t.Fatalf("Recorded = %d, want 3 (evictions still count)", got)
	}
	if got := len(sink.Trace(tc.TraceID)); got != 1 {
		t.Fatalf("buffered %d spans of the trace, want 1 (ring of one)", got)
	}
}

// mkSpan builds a span with millisecond offsets from a fixed epoch.
func mkSpan(traceID, id, parent, name string, startMs, endMs int) Span {
	epoch := time.Unix(5000, 0)
	return Span{
		TraceID: traceID, SpanID: id, ParentID: parent, Name: name,
		Start: epoch.Add(time.Duration(startMs) * time.Millisecond),
		End:   epoch.Add(time.Duration(endMs) * time.Millisecond),
	}
}

func testTrace() []Span {
	return []Span{
		mkSpan("t1", "r", "", "root", 0, 100),
		mkSpan("t1", "a", "r", "fast-child", 10, 40),
		mkSpan("t1", "b", "r", "slow-child", 20, 90),
		mkSpan("t1", "c", "b", "grandchild", 30, 85),
	}
}

func TestSummaries(t *testing.T) {
	sink := NewSpanSink(0)
	for _, sp := range testTrace() {
		sink.Record(sp)
	}
	sink.Record(mkSpan("t2", "x", "", "other", 0, 10))

	sums := sink.Summaries()
	if len(sums) != 2 {
		t.Fatalf("%d summaries, want 2", len(sums))
	}
	// Slowest first.
	if sums[0].TraceID != "t1" || sums[0].Root != "root" || sums[0].Spans != 4 {
		t.Fatalf("bad first summary: %+v", sums[0])
	}
	if sums[0].Duration != 100*time.Millisecond {
		t.Fatalf("duration = %v, want 100ms", sums[0].Duration)
	}
}

func TestCriticalPath(t *testing.T) {
	segs := CriticalPath(testTrace())
	// From root the walker follows slow-child (latest End among children)
	// and descends into grandchild, which finishes inside it; the tails of
	// slow-child and root after their followed subtree are charged back to
	// them. Each hop is charged until the next begins, making the segment
	// sum the root's start-to-finish latency.
	want := []PathSegment{
		{Name: "root", Self: 20 * time.Millisecond},
		{Name: "slow-child", Self: 10 * time.Millisecond},
		{Name: "grandchild", Self: 55 * time.Millisecond},
		{Name: "slow-child", Self: 5 * time.Millisecond},
		{Name: "root", Self: 10 * time.Millisecond},
	}
	if len(segs) != len(want) {
		t.Fatalf("critical path %v, want %d segments", segs, len(want))
	}
	for i := range want {
		if segs[i] != want[i] {
			t.Fatalf("segment %d = %+v, want %+v", i, segs[i], want[i])
		}
	}
	var sum time.Duration
	for _, s := range segs {
		sum += s.Self
	}
	if sum != 100*time.Millisecond { // root start (0) to root end (100)
		t.Fatalf("segment sum = %v, want 100ms", sum)
	}
	if CriticalPath(nil) != nil {
		t.Fatal("critical path of no spans")
	}
}

// TestCriticalPathCoversEveryRoot: a server's sink holds a remote caller's
// trace as several roots, the queue dwell and the handler, whose common
// parent lives in the caller's process. The path must cover the trace's
// whole extent, not stop at the end of the earliest root.
func TestCriticalPathCoversEveryRoot(t *testing.T) {
	epoch := time.Unix(5000, 0)
	us := func(id, parent, name string, from, to int) Span {
		return Span{TraceID: "t1", SpanID: id, ParentID: parent, Name: name,
			Start: epoch.Add(time.Duration(from) * time.Microsecond),
			End:   epoch.Add(time.Duration(to) * time.Microsecond)}
	}
	spans := []Span{
		us("d", "remote", "mq.dwell", 0, 22),
		us("h", "remote", "omq.handle.CommitRequest", 22, 135),
		us("m", "h", "metastore.commitBatch", 26, 134),
		us("n", "h", "omq.multi.NotifyCommit", 161, 162),
	}
	segs := CriticalPath(spans)
	var sum time.Duration
	onPath := false
	for _, s := range segs {
		sum += s.Self
		onPath = onPath || s.Name == "omq.handle.CommitRequest"
	}
	if sum != 162*time.Microsecond {
		t.Fatalf("segment sum = %v over %v, want the trace's 162µs", sum, segs)
	}
	if !onPath || segs[0].Name != "mq.dwell" {
		t.Fatalf("critical path %v, want mq.dwell then the handler", segs)
	}
	// A gap no root covers is charged as untraced time, so the sum still
	// equals the extent.
	spans[1] = us("h", "remote", "omq.handle.CommitRequest", 30, 135)
	var gap time.Duration
	for _, s := range CriticalPath(spans) {
		if s.Name == "(untraced)" {
			gap += s.Self
		}
	}
	if gap != 8*time.Microsecond {
		t.Fatalf("untraced gap = %v, want 8µs", gap)
	}
}

// TestForInstanceSharesSink: an instance tracer records into its parent's
// sink, stamped with its id; a disabled tracer stays disabled.
func TestForInstanceSharesSink(t *testing.T) {
	var off *Tracer
	if off.ForInstance("a") != nil {
		t.Fatal("instance tracer of a disabled tracer is enabled")
	}
	tr := NewTracer()
	a, b := tr.ForInstance("a"), tr.ForInstance("b")
	root := tr.StartRoot("client")
	a.StartChild(root.Context(), "on-a").End()
	b.RecordChild(root.Context(), "on-b", time.Now(), time.Now())
	root.End()
	got := map[string]string{}
	for _, sp := range tr.Sink().Trace(root.Context().TraceID) {
		got[sp.Name] = sp.Instance
	}
	if len(got) != 3 || got["client"] != "" || got["on-a"] != "a" || got["on-b"] != "b" {
		t.Fatalf("instance stamps %v, want client unstamped, on-a@a, on-b@b", got)
	}
}

// TestCriticalPathFollowsAsyncSubtree: a publish span closes at publish time,
// but its descendants (queue dwell, remote handler) carry the real latency.
// The walker must follow subtree ends, not span ends.
func TestCriticalPathFollowsAsyncSubtree(t *testing.T) {
	spans := []Span{
		mkSpan("t1", "h", "", "handler", 0, 50),
		mkSpan("t1", "m", "h", "meta", 10, 40),    // ends later than the publish span...
		mkSpan("t1", "p", "h", "publish", 42, 43), // ...but the publish subtree reaches 200
		mkSpan("t1", "r", "p", "remote-apply", 60, 200),
	}
	segs := CriticalPath(spans)
	want := []PathSegment{
		{Name: "handler", Self: 42 * time.Millisecond},
		{Name: "publish", Self: 18 * time.Millisecond},
		{Name: "remote-apply", Self: 140 * time.Millisecond},
	}
	if len(segs) != len(want) {
		t.Fatalf("critical path %v, want %v", segs, want)
	}
	var sum time.Duration
	for i := range want {
		if segs[i] != want[i] {
			t.Fatalf("segment %d = %+v, want %+v", i, segs[i], want[i])
		}
		sum += segs[i].Self
	}
	if sum != 200*time.Millisecond { // handler start (0) to remote-apply end (200)
		t.Fatalf("segment sum = %v, want 200ms", sum)
	}
}

func TestWriteTraceReport(t *testing.T) {
	var b strings.Builder
	WriteTraceReport(&b, "t1", testTrace())
	out := b.String()
	for _, want := range []string{
		"trace t1 (4 spans)",
		"root",
		"  fast-child", // indented under root
		"grandchild",
		"critical path:",
		"total",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report lacks %q:\n%s", want, out)
		}
	}
}

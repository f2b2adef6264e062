package obs

import (
	"strings"
	"testing"
	"time"
)

// fleetFixture builds a collector over two instance sources with their own
// sinks, event logs and sketches.
type fleetFixture struct {
	c            *Collector
	sinkA, sinkB *SpanSink
	trA, trB     *Tracer
	evA, evB     *EventLog
	hotA, hotB   *HotStats
}

func newFleetFixture() *fleetFixture {
	f := &fleetFixture{
		sinkA: NewSpanSink(0), sinkB: NewSpanSink(0),
		evA: NewEventLog(64), evB: NewEventLog(64),
		hotA: NewHotStats(4), hotB: NewHotStats(4),
	}
	f.trA = NewTracer(WithSink(f.sinkA), WithInstance("inst-a"))
	f.trB = NewTracer(WithSink(f.sinkB), WithInstance("inst-b"))
	f.c = NewCollector()
	f.c.Register(Source{
		InstanceID: "inst-a",
		Sink:       f.sinkA, Events: f.evA, Hot: f.hotA,
	})
	f.c.Register(Source{
		InstanceID: "inst-b",
		Sink:       f.sinkB, Events: f.evB, Hot: f.hotB,
	})
	return f
}

func TestCollectorStitchesAcrossInstances(t *testing.T) {
	f := newFleetFixture()
	// One logical request: root on a, continued on b via propagated context.
	root := f.trA.StartRoot("client.commit")
	childCtx := root.Context()
	root.End()
	h := f.trB.StartChild(childCtx, "omq.handle.CommitRequest")
	h.Annotate("workspace", "ws-1")
	h.End()

	if added := f.c.Collect(); added != 2 {
		t.Fatalf("Collect absorbed %d spans, want 2", added)
	}
	// Re-collect is idempotent.
	if added := f.c.Collect(); added != 0 {
		t.Fatalf("re-collect absorbed %d spans, want 0", added)
	}
	st, ok := f.c.Trace(childCtx.TraceID)
	if !ok {
		t.Fatal("trace not collected")
	}
	if len(st.Spans) != 2 || len(st.Instances) != 2 {
		t.Fatalf("stitched = %d spans across %v", len(st.Spans), st.Instances)
	}
	if st.Partial {
		t.Fatal("complete trace marked partial")
	}
	sums := f.c.Summaries()
	if len(sums) != 1 || sums[0].Spans != 2 {
		t.Fatalf("summaries = %+v", sums)
	}
	var buf strings.Builder
	WriteStitched(&buf, st)
	if !strings.Contains(buf.String(), "workspace=ws-1") {
		t.Fatalf("annotation not rendered:\n%s", buf.String())
	}
}

func TestCollectorEventsCursorAndRollup(t *testing.T) {
	f := newFleetFixture()
	f.evA.Append(Event{Kind: EventKind("test"), Summary: "one"})
	f.c.Collect()
	f.evA.Append(Event{Kind: EventKind("test"), Summary: "two"})
	f.c.Collect()
	f.c.Collect() // no new events

	f.hotA.ObserveCommit("ws-hot", 5, 1000)
	f.hotA.ObserveCommit("ws-hot", 5, 1000)
	f.hotB.ObserveCommit("ws-hot", 2, 500)
	f.hotB.ObserveCommit("ws-cold", 1, 10)
	f.c.Collect()

	r := f.c.Rollup()
	if len(r.Instances) != 2 {
		t.Fatalf("instances = %+v", r.Instances)
	}
	a, b := r.Instances[0], r.Instances[1]
	if a.InstanceID != "inst-a" || a.Events != 2 || !a.Alive {
		t.Fatalf("inst-a status = %+v", a)
	}
	if b.InstanceID != "inst-b" || b.Events != 0 || !b.Alive {
		t.Fatalf("inst-b status = %+v", b)
	}
	if len(r.RecentEvents) != 2 || r.RecentEvents[0].Instance != "inst-a" {
		t.Fatalf("events = %+v", r.RecentEvents)
	}
	// Fleet top-k merges per-instance sketches: ws-hot = 2+1 commits.
	if len(r.HotCommits) == 0 || r.HotCommits[0].Key != "ws-hot" || r.HotCommits[0].Count != 3 {
		t.Fatalf("hot commits = %+v", r.HotCommits)
	}
	if r.HotNotifyFanout[0].Count != 12 {
		t.Fatalf("hot fanout = %+v", r.HotNotifyFanout)
	}
	if r.HotTransfer[0].Count != 2500 {
		t.Fatalf("hot transfer = %+v", r.HotTransfer)
	}
	var buf strings.Builder
	f.c.WriteFleetz(&buf)
	out := buf.String()
	for _, want := range []string{"inst-a", "alive", "ws-hot", "hot workspaces by commits"} {
		if !strings.Contains(out, want) {
			t.Fatalf("fleetz missing %q:\n%s", want, out)
		}
	}
}

func TestCollectorCrashLosesUnscrapedSpans(t *testing.T) {
	f := newFleetFixture()
	root := f.trA.StartRoot("client.commit")
	tc := root.Context()
	root.End()
	f.c.Collect()

	// Spans recorded after the last poll die with the instance...
	f.trA.StartChild(tc, "lost-on-crash").End()
	f.c.MarkDead("inst-a", false)
	f.c.Collect()
	st, ok := f.c.Trace(tc.TraceID)
	if !ok || len(st.Spans) != 1 {
		t.Fatalf("crash should keep only pre-crash scrapes: %+v", st.Spans)
	}

	// ...but a clean drain grants a final scrape.
	h := f.trB.StartRoot("drain.work")
	h.End()
	f.c.MarkDead("inst-b", true)
	st2, ok := f.c.Trace(h.Context().TraceID)
	if !ok || len(st2.Spans) != 1 {
		t.Fatalf("clean shutdown lost spans: %+v", st2.Spans)
	}
	r := f.c.Rollup()
	for _, inst := range r.Instances {
		if inst.Alive {
			t.Fatalf("dead instance still alive: %+v", inst)
		}
		if inst.InstanceID == "inst-b" && !inst.CleanExit {
			t.Fatalf("inst-b should be a clean exit: %+v", inst)
		}
		if inst.InstanceID == "inst-a" && inst.CleanExit {
			t.Fatalf("inst-a should be a crash: %+v", inst)
		}
	}
	var buf strings.Builder
	f.c.WriteFleetz(&buf)
	if !strings.Contains(buf.String(), "crashed") || !strings.Contains(buf.String(), "drained") {
		t.Fatalf("fleetz should distinguish crash from drain:\n%s", buf.String())
	}
}

func TestCollectorTraceEviction(t *testing.T) {
	now := time.Unix(1000, 0)
	c := NewCollector(WithMaxTraces(2), WithCollectorNowFunc(func() time.Time {
		now = now.Add(time.Second)
		return now
	}))
	sink := NewSpanSink(0)
	tr := NewTracer(WithSink(sink), WithInstance("i"))
	c.Register(Source{InstanceID: "i", Sink: sink})
	var ids []string
	for n := 0; n < 3; n++ {
		h := tr.StartRoot("r")
		ids = append(ids, h.Context().TraceID)
		h.End()
	}
	c.Collect()
	if got := len(c.TraceIDs()); got != 2 {
		t.Fatalf("trace store not bounded: %d", got)
	}
}

func TestCollectorNilSafe(t *testing.T) {
	var c *Collector
	c.Register(Source{InstanceID: "x"})
	c.MarkDead("x", true)
	if c.Collect() != 0 || c.Summaries() != nil || c.TraceIDs() != nil {
		t.Fatal("nil collector should be inert")
	}
	if _, ok := c.Trace("t"); ok {
		t.Fatal("nil collector returned a trace")
	}
}

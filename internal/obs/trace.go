package obs

import (
	"context"
	crand "crypto/rand"
	"encoding/hex"
	"fmt"
	"hash/fnv"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Trace header keys carried in message/frame headers across every hop
// (omq request envelopes ride mq.Message.Headers, which wire.Frame already
// forwards over TCP, so the context crosses process boundaries unchanged).
const (
	// HeaderTraceID and HeaderSpanID identify the sender's span; a receiver
	// creates children of it.
	HeaderTraceID = "x-obs-trace"
	HeaderSpanID  = "x-obs-span"
	// HeaderPublishNanos is the sender clock's UnixNano at publish time; the
	// receiver turns it into a queue-dwell span.
	HeaderPublishNanos = "x-obs-pub"
)

// TraceContext identifies one span within one trace. The zero value is
// invalid (not part of any trace).
type TraceContext struct {
	TraceID  string `json:"traceId"`
	SpanID   string `json:"spanId"`
	ParentID string `json:"parentId,omitempty"`
}

// Valid reports whether the context belongs to a trace.
func (tc TraceContext) Valid() bool { return tc.TraceID != "" && tc.SpanID != "" }

// Child derives a fresh span context under tc.
func (tc TraceContext) Child() TraceContext {
	return TraceContext{TraceID: tc.TraceID, SpanID: newSpanID(), ParentID: tc.SpanID}
}

// Inject writes the context into a header map (no-op when invalid or nil).
func (tc TraceContext) Inject(h map[string]string) {
	if h == nil || !tc.Valid() {
		return
	}
	h[HeaderTraceID] = tc.TraceID
	h[HeaderSpanID] = tc.SpanID
}

// ExtractTraceContext reads a context from a header map. The returned
// context identifies the *sender's* span; record receiver spans as its
// children.
func ExtractTraceContext(h map[string]string) (TraceContext, bool) {
	if h == nil {
		return TraceContext{}, false
	}
	tc := TraceContext{TraceID: h[HeaderTraceID], SpanID: h[HeaderSpanID]}
	return tc, tc.Valid()
}

type ctxKey struct{}

// ContextWith returns a context carrying tc.
func ContextWith(ctx context.Context, tc TraceContext) context.Context {
	if !tc.Valid() {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, tc)
}

// FromContext returns the trace context carried by ctx (invalid when absent).
func FromContext(ctx context.Context) TraceContext {
	if ctx == nil {
		return TraceContext{}
	}
	tc, _ := ctx.Value(ctxKey{}).(TraceContext)
	return tc
}

// Annot is one key/value annotation on a span — small facts about what the
// span did (failover cause, retry attempt, backoff wait) that the timeline
// and /tracez render inline.
type Annot struct {
	Key string `json:"k"`
	Val string `json:"v"`
}

// MaxSpanAnnots bounds annotations per span. Annotate drops writes past the
// cap instead of growing without bound; spans are buffered in fixed-size
// rings and must stay cheap to copy.
const MaxSpanAnnots = 8

// Span is one recorded operation of a trace.
type Span struct {
	TraceID  string    `json:"traceId"`
	SpanID   string    `json:"spanId"`
	ParentID string    `json:"parentId,omitempty"`
	Name     string    `json:"name"`
	Start    time.Time `json:"start"`
	End      time.Time `json:"end"`
	// Instance is the id of the instance that recorded the span (stamped
	// by a tracer from ForInstance; "" on unstamped tracers).
	Instance string `json:"instance,omitempty"`
	// Annots are bounded key/value annotations (at most MaxSpanAnnots).
	Annots []Annot `json:"annots,omitempty"`
}

// Annot returns the value of the annotation named key ("" when absent).
func (s Span) Annot(key string) string {
	for _, a := range s.Annots {
		if a.Key == key {
			return a.Val
		}
	}
	return ""
}

// Duration is the span's elapsed time.
func (s Span) Duration() time.Duration { return s.End.Sub(s.Start) }

// ID generation: a per-process random prefix plus an atomic sequence keeps
// span ids unique across processes without per-span entropy reads.
var (
	idSeq  atomic.Uint64
	idBase = func() string {
		var b [4]byte
		if _, err := crand.Read(b[:]); err != nil {
			return "00000000"
		}
		return hex.EncodeToString(b[:])
	}()
)

func newSpanID() string { return fmt.Sprintf("%s-%x", idBase, idSeq.Add(1)) }

// NewTraceContext starts a fresh root context (a new trace).
func NewTraceContext() TraceContext {
	return TraceContext{TraceID: newSpanID(), SpanID: newSpanID()}
}

// sinkShardCount shards the span sink so concurrent hops of different traces
// don't serialize on one mutex. All spans of a trace land in one shard
// (shard = hash(TraceID)), so reading a single trace locks a single shard.
const sinkShardCount = 16

// SpanSink buffers recently finished spans in per-shard ring buffers. It is
// lock-cheap: Record takes one shard mutex for an index bump and a slot
// write; no allocation once the rings are warm.
type SpanSink struct {
	shards [sinkShardCount]sinkShard
}

type sinkShard struct {
	mu   sync.Mutex
	buf  []Span
	next int
	n    uint64 // total recorded, for eviction accounting
}

// NewSpanSink returns a sink holding roughly capacity spans in total
// (default 4096, minimum one per shard).
func NewSpanSink(capacity int) *SpanSink {
	if capacity <= 0 {
		capacity = 4096
	}
	per := capacity / sinkShardCount
	if per < 1 {
		per = 1
	}
	s := &SpanSink{}
	for i := range s.shards {
		s.shards[i].buf = make([]Span, per)
	}
	return s
}

func (s *SpanSink) shardFor(traceID string) *sinkShard {
	h := fnv.New32a()
	_, _ = h.Write([]byte(traceID))
	return &s.shards[h.Sum32()%sinkShardCount]
}

// Record buffers one finished span, evicting the oldest in its shard when
// full.
func (s *SpanSink) Record(sp Span) {
	sh := s.shardFor(sp.TraceID)
	sh.mu.Lock()
	sh.buf[sh.next] = sp
	sh.next = (sh.next + 1) % len(sh.buf)
	sh.n++
	sh.mu.Unlock()
}

// Recorded returns the total number of spans ever recorded (including
// evicted ones).
func (s *SpanSink) Recorded() uint64 {
	var total uint64
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		total += sh.n
		sh.mu.Unlock()
	}
	return total
}

// Spans returns a copy of every buffered span.
func (s *SpanSink) Spans() []Span {
	var out []Span
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		for _, sp := range sh.buf {
			if sp.TraceID != "" {
				out = append(out, sp)
			}
		}
		sh.mu.Unlock()
	}
	return out
}

// Trace returns the buffered spans of one trace, ordered by start time.
func (s *SpanSink) Trace(traceID string) []Span {
	sh := s.shardFor(traceID)
	var out []Span
	sh.mu.Lock()
	for _, sp := range sh.buf {
		if sp.TraceID == traceID {
			out = append(out, sp)
		}
	}
	sh.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Start.Before(out[j].Start) })
	return out
}

// TraceSummary aggregates one trace for the /tracez listing.
type TraceSummary struct {
	TraceID  string        `json:"traceId"`
	Root     string        `json:"root"` // name of the root span ("" when evicted)
	Start    time.Time     `json:"start"`
	Duration time.Duration `json:"duration"` // earliest start to latest end
	Spans    int           `json:"spans"`
}

// Summaries groups all buffered spans by trace, slowest first.
func (s *SpanSink) Summaries() []TraceSummary {
	byTrace := make(map[string][]Span)
	for _, sp := range s.Spans() {
		byTrace[sp.TraceID] = append(byTrace[sp.TraceID], sp)
	}
	out := make([]TraceSummary, 0, len(byTrace))
	for id, spans := range byTrace {
		sum := TraceSummary{TraceID: id, Spans: len(spans)}
		first, last := spans[0].Start, spans[0].End
		spanIDs := make(map[string]bool, len(spans))
		for _, sp := range spans {
			spanIDs[sp.SpanID] = true
		}
		var rootStart time.Time
		for _, sp := range spans {
			if sp.Start.Before(first) {
				first = sp.Start
			}
			if sp.End.After(last) {
				last = sp.End
			}
			if sp.ParentID == "" || !spanIDs[sp.ParentID] {
				if sum.Root == "" || sp.Start.Before(rootStart) {
					sum.Root, rootStart = sp.Name, sp.Start
				}
			}
		}
		sum.Start = first
		sum.Duration = last.Sub(first)
		out = append(out, sum)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Duration != out[j].Duration {
			return out[i].Duration > out[j].Duration
		}
		return out[i].TraceID < out[j].TraceID
	})
	return out
}

// Tracer records spans into a sink. A nil *Tracer is the disabled tracer:
// every method is safe to call and does nothing, so instrumented code pays
// only a nil check when tracing is off.
type Tracer struct {
	sink     *SpanSink
	now      func() time.Time
	instance string
}

// TracerOption configures a Tracer.
type TracerOption func(*Tracer)

// WithSink records into a caller-owned sink.
func WithSink(s *SpanSink) TracerOption {
	return func(t *Tracer) { t.sink = s }
}

// WithNowFunc substitutes the time source (virtual-clock tests).
func WithNowFunc(fn func() time.Time) TracerOption {
	return func(t *Tracer) { t.now = fn }
}

// NewTracer returns an enabled tracer (default: fresh 4096-span sink, wall
// clock).
func NewTracer(opts ...TracerOption) *Tracer {
	t := &Tracer{now: time.Now}
	for _, opt := range opts {
		opt(t)
	}
	if t.sink == nil {
		t.sink = NewSpanSink(0)
	}
	return t
}

// Enabled reports whether the tracer records anything.
func (t *Tracer) Enabled() bool { return t != nil }

// ForInstance returns a tracer that records into the same sink on the same
// clock, stamping every span with instance id — how the spans of the many
// SyncService instances of one process stay told apart in one sink. It
// returns nil on a nil tracer, so a disabled tracer stays disabled.
func (t *Tracer) ForInstance(id string) *Tracer {
	if t == nil {
		return nil
	}
	return &Tracer{sink: t.sink, now: t.now, instance: id}
}

// Sink exposes the span sink (nil for a disabled tracer).
func (t *Tracer) Sink() *SpanSink {
	if t == nil {
		return nil
	}
	return t.sink
}

// SpanHandle is an open span. A nil handle is valid and inert, so call sites
// never branch on whether tracing is on.
type SpanHandle struct {
	t    *Tracer
	span Span
}

// StartRoot opens a root span of a brand-new trace.
func (t *Tracer) StartRoot(name string) *SpanHandle {
	if t == nil {
		return nil
	}
	tc := NewTraceContext()
	return &SpanHandle{t: t, span: Span{
		TraceID: tc.TraceID, SpanID: tc.SpanID, Name: name, Start: t.now(),
		Instance: t.instance,
	}}
}

// StartChild opens a span under parent; nil when the parent is not part of a
// trace (untraced request paths stay untraced).
func (t *Tracer) StartChild(parent TraceContext, name string) *SpanHandle {
	if t == nil || !parent.Valid() {
		return nil
	}
	tc := parent.Child()
	return &SpanHandle{t: t, span: Span{
		TraceID: tc.TraceID, SpanID: tc.SpanID, ParentID: tc.ParentID,
		Name: name, Start: t.now(), Instance: t.instance,
	}}
}

// StartFromContext opens a child of the trace context carried by ctx.
func (t *Tracer) StartFromContext(ctx context.Context, name string) *SpanHandle {
	if t == nil {
		return nil
	}
	return t.StartChild(FromContext(ctx), name)
}

// RecordChild records an already-finished span under parent with explicit
// bounds — used for intervals observed after the fact, like queue dwell
// reconstructed from the publish timestamp header.
func (t *Tracer) RecordChild(parent TraceContext, name string, start, end time.Time) {
	if t == nil || !parent.Valid() {
		return
	}
	tc := parent.Child()
	if end.Before(start) {
		end = start
	}
	t.sink.Record(Span{
		TraceID: tc.TraceID, SpanID: tc.SpanID, ParentID: tc.ParentID,
		Name: name, Start: start, End: end, Instance: t.instance,
	})
}

// Annotate attaches a key/value annotation to the open span. At most
// MaxSpanAnnots stick; later writes are dropped. Safe on a nil handle.
func (h *SpanHandle) Annotate(key, val string) {
	if h == nil || len(h.span.Annots) >= MaxSpanAnnots {
		return
	}
	h.span.Annots = append(h.span.Annots, Annot{Key: key, Val: val})
}

// End closes the span and records it.
func (h *SpanHandle) End() {
	if h == nil {
		return
	}
	h.span.End = h.t.now()
	h.t.sink.Record(h.span)
}

// Context returns the span's trace context (zero for a nil handle).
func (h *SpanHandle) Context() TraceContext {
	if h == nil {
		return TraceContext{}
	}
	return TraceContext{TraceID: h.span.TraceID, SpanID: h.span.SpanID, ParentID: h.span.ParentID}
}

// PathSegment is one hop of a critical path with the latency it contributes.
type PathSegment struct {
	Name string        `json:"name"`
	Self time.Duration `json:"self"`
	// Instance is the instance the hop ran on ("" when unstamped), so a
	// path attributes latency across instances.
	Instance string `json:"instance,omitempty"`
}

// CriticalPath walks the span tree from the root, at each step following the
// child whose *subtree* ends latest, and charges each hop the time until the
// next hop begins. Following subtree ends (not span ends) matters for
// asynchronous hops: a publish span closes as soon as the broker accepts the
// message, but its descendants — queue dwell, remote handler, remote apply —
// carry the latency that the user actually waits for. When that subtree
// finishes inside its parent, as a synchronous call's remote handler does,
// the walk descends into it all the same and then charges the parent's
// remaining tail back to the parent as a second segment of the same name.
//
// A sink can hold several roots of one trace — every span whose parent lives
// in another process, such as the queue dwell and the handler of a call
// from a remote client. The walk starts at the root whose subtree ends
// last, and each earlier root covers the time before the root after it
// (an interval no root covers is an "(untraced)" segment). The segment sum
// therefore equals the trace's start-to-finish latency — "where did the
// commit's 2 s go: queue wait, DB or storage?".
func CriticalPath(spans []Span) []PathSegment {
	if len(spans) == 0 {
		return nil
	}
	byID := make(map[string]Span, len(spans))
	children := make(map[string][]Span)
	for _, sp := range spans {
		byID[sp.SpanID] = sp
		children[sp.ParentID] = append(children[sp.ParentID], sp)
	}
	var roots []Span
	for _, sp := range spans {
		if _, hasParent := byID[sp.ParentID]; !hasParent {
			roots = append(roots, sp)
		}
	}
	if len(roots) == 0 {
		// Corrupt parent links formed a cycle: start at the earliest span.
		root := spans[0]
		for _, sp := range spans {
			if sp.Start.Before(root.Start) {
				root = sp
			}
		}
		roots = []Span{root}
	}
	// subtreeEnd[id] = latest End anywhere in the span's subtree.
	subtreeEnd := make(map[string]time.Time, len(spans))
	var deepEnd func(sp Span) time.Time
	deepEnd = func(sp Span) time.Time {
		if end, ok := subtreeEnd[sp.SpanID]; ok {
			return end
		}
		subtreeEnd[sp.SpanID] = sp.End // breaks cycles from corrupt parent links
		end := sp.End
		for _, k := range children[sp.SpanID] {
			if d := deepEnd(k); d.After(end) {
				end = d
			}
		}
		subtreeEnd[sp.SpanID] = end
		return end
	}
	seg := func(name, instance string, d time.Duration) PathSegment {
		return PathSegment{Name: name, Self: max(d, 0), Instance: instance}
	}
	visited := make(map[string]bool, len(spans))
	var walk func(sp Span) []PathSegment
	walk = func(sp Span) []PathSegment {
		if visited[sp.SpanID] {
			return nil // corrupt parent links formed a cycle
		}
		visited[sp.SpanID] = true
		kids := children[sp.SpanID]
		if len(kids) == 0 {
			return []PathSegment{seg(sp.Name, sp.Instance, sp.Duration())}
		}
		next := kids[0]
		nextEnd := deepEnd(next)
		for _, k := range kids[1:] {
			if d := deepEnd(k); d.After(nextEnd) {
				next, nextEnd = k, d
			}
		}
		out := append([]PathSegment{seg(sp.Name, sp.Instance, next.Start.Sub(sp.Start))}, walk(next)...)
		if tail := sp.End.Sub(nextEnd); tail > 0 {
			// The subtree finished inside this span: the remainder (reply
			// publish, dwell back, decode) belongs to the parent again.
			out = append(out, seg(sp.Name, sp.Instance, tail))
		}
		return out
	}
	// Chain the roots backwards from the one whose subtree ends last: each
	// step takes, among the roots starting before the current one, the root
	// that runs closest to it, and keeps its path up to that start.
	var path []PathSegment
	var until time.Time // start of the root chained last; zero before the first
	for {
		var best Span
		var bestEnd time.Time
		found := false
		for _, r := range roots {
			if visited[r.SpanID] || (!until.IsZero() && !r.Start.Before(until)) {
				continue
			}
			end := deepEnd(r)
			if !until.IsZero() && end.After(until) {
				end = until
			}
			if !found || end.After(bestEnd) || (end.Equal(bestEnd) && r.Start.Before(best.Start)) {
				best, bestEnd, found = r, end, true
			}
		}
		if !found {
			return path
		}
		segs := walk(best)
		if !until.IsZero() {
			segs = clipPath(segs, bestEnd.Sub(best.Start))
			if gap := until.Sub(bestEnd); gap > 0 {
				segs = append(segs, seg("(untraced)", "", gap))
			}
		}
		path = append(segs, path...)
		until = best.Start
	}
}

// clipPath keeps the first d of a time-ordered path, shortening the segment
// that straddles d and dropping everything after it.
func clipPath(segs []PathSegment, d time.Duration) []PathSegment {
	var sum time.Duration
	for i := range segs {
		if sum+segs[i].Self >= d {
			segs[i].Self = d - sum
			return segs[:i+1]
		}
		sum += segs[i].Self
	}
	return segs
}

// WriteTimeline renders the spans of one trace as an indented tree with
// per-span offsets and durations.
func WriteTimeline(w io.Writer, spans []Span) {
	if len(spans) == 0 {
		return
	}
	first := spans[0].Start
	byID := make(map[string]bool, len(spans))
	children := make(map[string][]Span)
	for _, sp := range spans {
		byID[sp.SpanID] = true
		if sp.Start.Before(first) {
			first = sp.Start
		}
	}
	var roots []Span
	for _, sp := range spans {
		if sp.ParentID == "" || !byID[sp.ParentID] {
			roots = append(roots, sp)
		} else {
			children[sp.ParentID] = append(children[sp.ParentID], sp)
		}
	}
	sortSpans := func(s []Span) {
		sort.Slice(s, func(i, j int) bool { return s[i].Start.Before(s[j].Start) })
	}
	sortSpans(roots)
	var dump func(sp Span, depth int)
	dump = func(sp Span, depth int) {
		fmt.Fprintf(w, "%10s %s%s %s%s%s\n",
			fmtOffset(sp.Start.Sub(first)), strings.Repeat("  ", depth), sp.Name,
			sp.Duration().Round(time.Microsecond),
			fmtInstance(sp.Instance), fmtAnnots(sp.Annots))
		kids := children[sp.SpanID]
		sortSpans(kids)
		for _, k := range kids {
			dump(k, depth+1)
		}
	}
	for _, r := range roots {
		dump(r, 0)
	}
}

func fmtOffset(d time.Duration) string {
	return fmt.Sprintf("+%.3fms", float64(d.Microseconds())/1000)
}

func fmtInstance(id string) string {
	if id == "" {
		return ""
	}
	return " @" + id
}

func fmtAnnots(annots []Annot) string {
	if len(annots) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteString(" {")
	for i, a := range annots {
		if i > 0 {
			b.WriteString(" ")
		}
		b.WriteString(a.Key)
		b.WriteString("=")
		b.WriteString(a.Val)
	}
	b.WriteString("}")
	return b.String()
}

// WriteTraceReport renders one trace as a timeline followed by its critical
// path breakdown — the /tracez detail view and the trace-demo output.
func WriteTraceReport(w io.Writer, id string, spans []Span) {
	fmt.Fprintf(w, "trace %s (%d spans)\n", id, len(spans))
	WriteTimeline(w, spans)
	fmt.Fprintln(w, "critical path:")
	var total time.Duration
	for _, seg := range CriticalPath(spans) {
		fmt.Fprintf(w, "  %-36s %10s%s\n", seg.Name,
			seg.Self.Round(time.Microsecond), fmtInstance(seg.Instance))
		total += seg.Self
	}
	fmt.Fprintf(w, "  %-36s %10s\n", "total", total.Round(time.Microsecond))
}

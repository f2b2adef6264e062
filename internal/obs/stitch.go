package obs

import (
	"fmt"
	"io"
	"sort"
	"time"
)

// Trace stitching: one logical request (a commit, say) leaves spans in
// several processes — the client's root and publish spans, the serving
// instance's handler and metastore spans, and after a crash a second
// instance's handling of the redelivered call. The Collector scrapes each instance's sink; Stitch
// merges one TraceID's spans from all of them into a single coherent timeline
// that CriticalPath and WriteTimeline can walk across process boundaries.
//
// Two realities make this more than a concat:
//
//   - Clocks differ between processes. A child span recorded on instance B can
//     appear to start before its parent on instance A. Stitch aligns each
//     instance's clock just enough to repair causality (child never starts
//     before its parent), shifting whole instances — never individual spans —
//     so intra-instance ordering is preserved.
//
//   - Instances die mid-request. Spans buffered on a crashed instance since
//     the last scrape are gone, so a trace can arrive with holes: children
//     whose parents are missing. Such traces are marked Partial and still
//     render (the orphans become extra roots) instead of panicking.

// StitchedTrace is one TraceID's fleet-wide merged view.
type StitchedTrace struct {
	TraceID string `json:"traceId"`
	// Spans is deduplicated, skew-aligned and sorted by start time.
	Spans []Span `json:"spans"`
	// Instances lists the distinct recording instances, sorted.
	Instances []string `json:"instances"`
	// SkewAdjust maps instance id → the clock shift applied to its spans
	// (only instances that needed repair appear).
	SkewAdjust map[string]time.Duration `json:"skewAdjust,omitempty"`
	// Partial is true when at least one span's parent is missing — typically
	// because the instance that recorded it died before a final scrape.
	Partial bool `json:"partial,omitempty"`
}

// skewPasses bounds the causality-repair iteration. Each pass can propagate a
// shift one hop further along a chain of instances; traces cross at most a
// handful of processes, so a small constant is plenty and guarantees
// termination even on corrupt parent links.
const skewPasses = 4

// Stitch merges spans (from any number of instances, possibly containing
// duplicates from repeated scrapes) into one StitchedTrace.
func Stitch(traceID string, spans []Span) StitchedTrace {
	st := StitchedTrace{TraceID: traceID}
	seen := make(map[string]bool, len(spans))
	for _, sp := range spans {
		if sp.SpanID == "" || seen[sp.SpanID] {
			continue
		}
		seen[sp.SpanID] = true
		st.Spans = append(st.Spans, sp)
	}
	if len(st.Spans) == 0 {
		return st
	}

	instances := make(map[string]bool)
	byID := make(map[string]*Span, len(st.Spans))
	for i := range st.Spans {
		byID[st.Spans[i].SpanID] = &st.Spans[i]
		if st.Spans[i].Instance != "" {
			instances[st.Spans[i].Instance] = true
		}
	}
	for id := range instances {
		st.Instances = append(st.Instances, id)
	}
	sort.Strings(st.Instances)

	// Causality repair: when a child on instance I starts before its parent on
	// instance J (I != J), instance I's clock is behind — shift all of I's
	// spans forward by the worst violation. Iterate because a shift can expose
	// a violation on the next cross-instance edge of a chain.
	for pass := 0; pass < skewPasses; pass++ {
		shift := make(map[string]time.Duration)
		for i := range st.Spans {
			child := &st.Spans[i]
			parent, ok := byID[child.ParentID]
			if !ok || child.ParentID == "" {
				continue
			}
			if parent.Instance == child.Instance {
				continue
			}
			if d := parent.Start.Sub(child.Start); d > 0 && d > shift[child.Instance] {
				shift[child.Instance] = d
			}
		}
		if len(shift) == 0 {
			break
		}
		for inst, d := range shift {
			st.SkewAdjust = addSkew(st.SkewAdjust, inst, d)
		}
		for i := range st.Spans {
			if d, ok := shift[st.Spans[i].Instance]; ok {
				st.Spans[i].Start = st.Spans[i].Start.Add(d)
				st.Spans[i].End = st.Spans[i].End.Add(d)
			}
		}
	}

	for i := range st.Spans {
		if p := st.Spans[i].ParentID; p != "" && byID[p] == nil {
			st.Partial = true
			break
		}
	}
	sort.Slice(st.Spans, func(i, j int) bool {
		if !st.Spans[i].Start.Equal(st.Spans[j].Start) {
			return st.Spans[i].Start.Before(st.Spans[j].Start)
		}
		return st.Spans[i].SpanID < st.Spans[j].SpanID
	})
	return st
}

func addSkew(m map[string]time.Duration, inst string, d time.Duration) map[string]time.Duration {
	if m == nil {
		m = make(map[string]time.Duration)
	}
	m[inst] += d
	return m
}

// CriticalPathDeep is the fleet variant of CriticalPath. The classic walker
// stops when a child's subtree finishes inside its parent — right for async
// hops, but a synchronous call (the caller blocks until the reply)
// always contains its remote handler, so the classic path never crosses the
// process boundary. This walker descends into the contained subtree and then
// re-ascends, charging the reply tail back to the parent as a second segment
// with the same name. Segment sums still telescope to the chain's
// start-to-finish latency, and each segment carries the instance that spent
// the time — "the commit's 2 s: 0.3 s client, 1.5 s on instance B's
// metastore, 0.2 s reply".
func CriticalPathDeep(spans []Span) []PathSegment {
	if len(spans) == 0 {
		return nil
	}
	byID := make(map[string]Span, len(spans))
	children := make(map[string][]Span)
	for _, sp := range spans {
		byID[sp.SpanID] = sp
		children[sp.ParentID] = append(children[sp.ParentID], sp)
	}
	root := spans[0]
	for _, sp := range spans {
		if _, hasParent := byID[sp.ParentID]; !hasParent && sp.Start.Before(root.Start) {
			root = sp
		}
	}
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
	seg := func(sp Span, d time.Duration) PathSegment {
		if d < 0 {
			d = 0
		}
		return PathSegment{Name: sp.Name, Self: d, Instance: sp.Instance}
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
			return []PathSegment{seg(sp, sp.Duration())}
		}
		next := kids[0]
		nextEnd := deepEnd(next)
		for _, k := range kids[1:] {
			if d := deepEnd(k); d.After(nextEnd) {
				next, nextEnd = k, d
			}
		}
		out := append([]PathSegment{seg(sp, next.Start.Sub(sp.Start))}, walk(next)...)
		if tail := sp.End.Sub(nextEnd); tail > 0 {
			// The subtree finished inside this span: the remainder (reply
			// publish, dwell back, decode) belongs to the parent again.
			out = append(out, seg(sp, tail))
		}
		return out
	}
	return walk(root)
}

// WriteStitched renders a stitched trace: instance roster, any skew repairs,
// a partial-trace warning, then the standard timeline + critical path.
func WriteStitched(w io.Writer, st StitchedTrace) {
	fmt.Fprintf(w, "stitched trace %s: %d spans across %d instance(s)",
		st.TraceID, len(st.Spans), len(st.Instances))
	if len(st.Instances) > 0 {
		fmt.Fprintf(w, " %v", st.Instances)
	}
	fmt.Fprintln(w)
	if len(st.SkewAdjust) > 0 {
		insts := make([]string, 0, len(st.SkewAdjust))
		for id := range st.SkewAdjust {
			insts = append(insts, id)
		}
		sort.Strings(insts)
		for _, id := range insts {
			fmt.Fprintf(w, "  clock skew repaired: %s shifted +%s\n",
				id, st.SkewAdjust[id].Round(time.Microsecond))
		}
	}
	if st.Partial {
		fmt.Fprintln(w, "  PARTIAL: spans missing (instance died before final scrape)")
	}
	fmt.Fprintf(w, "trace %s (%d spans)\n", st.TraceID, len(st.Spans))
	WriteTimeline(w, st.Spans)
	fmt.Fprintln(w, "critical path (cross-instance):")
	var total time.Duration
	for _, s := range CriticalPathDeep(st.Spans) {
		fmt.Fprintf(w, "  %-36s %10s%s\n", s.Name,
			s.Self.Round(time.Microsecond), fmtInstance(s.Instance))
		total += s.Self
	}
	fmt.Fprintf(w, "  %-36s %10s\n", "total", total.Round(time.Microsecond))
}

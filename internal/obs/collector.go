package obs

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// Collector federates per-instance observability exports into one fleet view.
// Each supervised SyncService instance owns its own SpanSink, Registry,
// EventLog and HotStats; the Collector scrapes all of them — stamping
// everything with the instance id — so one admin surface can answer fleet
// questions: /fleetz for the rollup, fleet-wide /tracez for a TraceID's spans
// stitched across instances.
//
// Scrapes are idempotent: spans deduplicate by SpanID into a bounded per-trace
// store and events are cursored by their flight-recorder sequence number, so
// polling at any cadence never double-counts. When an instance dies cleanly
// (a drained scale-down) the caller grants a final scrape; when it
// crashes, whatever was buffered since the last poll is lost and affected
// traces surface as Partial — truthful, not papered over.

// Source is one instance's set of scrape points. Only InstanceID is
// mandatory; nil fields are skipped.
type Source struct {
	InstanceID string
	// Registry, Sink, Events and Hot are the instance's exports.
	Registry *Registry
	Sink     *SpanSink
	Events   *EventLog
	Hot      *HotStats
}

// FleetEvent is a flight-recorder event stamped with its origin instance.
type FleetEvent struct {
	Instance string `json:"instance"`
	Event
}

// InstanceStatus is one row of the /fleetz rollup.
type InstanceStatus struct {
	InstanceID string    `json:"instance"`
	Alive      bool      `json:"alive"`
	Spans      uint64    `json:"spansCollected"`
	Events     uint64    `json:"eventsCollected"`
	LastScrape time.Time `json:"lastScrape"`
	// CleanExit distinguishes drained instances (final scrape granted) from
	// crashes (buffered spans lost) among the dead.
	CleanExit bool `json:"cleanExit,omitempty"`
}

// FleetRollup is the /fleetz payload.
type FleetRollup struct {
	Instances []InstanceStatus `json:"instances"`
	Traces    int              `json:"traces"`
	// Hot* are the fleet-merged per-workspace heavy hitters.
	HotCommits      []TopKEntry  `json:"hotCommits,omitempty"`
	HotNotifyFanout []TopKEntry  `json:"hotNotifyFanout,omitempty"`
	HotTransfer     []TopKEntry  `json:"hotTransferBytes,omitempty"`
	RecentEvents    []FleetEvent `json:"recentEvents,omitempty"`
}

type sourceState struct {
	src          Source
	alive        bool
	cleanExit    bool
	lastEventSeq uint64
	spans        uint64
	events       uint64
	lastScrape   time.Time
	hot          HotSnapshot
	metrics      map[string]float64
}

type traceBuf struct {
	spans []Span
	seen  map[string]bool
	last  time.Time
}

// Collector aggregates any number of Sources. All methods are safe for
// concurrent use.
type Collector struct {
	mu        sync.Mutex
	sources   map[string]*sourceState
	traces    map[string]*traceBuf
	maxTraces int
	events    []FleetEvent
	maxEvents int
	topK      int
	now       func() time.Time
}

// CollectorOption configures a Collector.
type CollectorOption func(*Collector)

// WithMaxTraces bounds the stitched-trace store (default 512 traces; oldest
// by last update evicted first).
func WithMaxTraces(n int) CollectorOption {
	return func(c *Collector) {
		if n > 0 {
			c.maxTraces = n
		}
	}
}

// WithCollectorNowFunc substitutes the clock (virtual-clock tests).
func WithCollectorNowFunc(fn func() time.Time) CollectorOption {
	return func(c *Collector) { c.now = fn }
}

// WithFleetTopK sets the width of the fleet-merged heavy-hitter lists
// (default 8).
func WithFleetTopK(k int) CollectorOption {
	return func(c *Collector) {
		if k > 0 {
			c.topK = k
		}
	}
}

// NewCollector returns an empty collector.
func NewCollector(opts ...CollectorOption) *Collector {
	c := &Collector{
		sources:   make(map[string]*sourceState),
		traces:    make(map[string]*traceBuf),
		maxTraces: 512,
		maxEvents: 256,
		topK:      8,
		now:       time.Now,
	}
	for _, opt := range opts {
		opt(c)
	}
	return c
}

// Register adds (or replaces) a source. The instance starts alive.
func (c *Collector) Register(src Source) {
	if c == nil || src.InstanceID == "" {
		return
	}
	c.mu.Lock()
	c.sources[src.InstanceID] = &sourceState{src: src, alive: true}
	c.mu.Unlock()
}

// MarkDead retires an instance. clean=true means a drained shutdown: the
// collector takes one final scrape so nothing is lost. clean=false means a
// crash: spans buffered since the last poll are gone, and traces they
// belonged to will stitch as Partial.
func (c *Collector) MarkDead(instanceID string, clean bool) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	st, ok := c.sources[instanceID]
	if !ok || !st.alive {
		return
	}
	if clean {
		c.scrapeLocked(st)
	}
	st.alive = false
	st.cleanExit = clean
}

// Collect scrapes every live source once. Returns the number of new spans
// absorbed (handy for tests and the poller's idle detection).
func (c *Collector) Collect() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	ids := make([]string, 0, len(c.sources))
	for id, st := range c.sources {
		if st.alive {
			ids = append(ids, id)
		}
	}
	sort.Strings(ids)
	var added int
	for _, id := range ids {
		added += c.scrapeLocked(c.sources[id])
	}
	return added
}

// scrapeLocked pulls one source's current exports into the fleet stores.
func (c *Collector) scrapeLocked(st *sourceState) int {
	now := c.now()
	st.lastScrape = now
	if st.src.Hot != nil {
		st.hot = st.src.Hot.Snapshot()
	}
	if st.src.Events != nil {
		for _, ev := range st.src.Events.Since(st.lastEventSeq) {
			st.lastEventSeq = ev.Seq
			st.events++
			c.events = append(c.events, FleetEvent{Instance: st.src.InstanceID, Event: ev})
		}
		if over := len(c.events) - c.maxEvents; over > 0 {
			c.events = append(c.events[:0], c.events[over:]...)
		}
	}
	if st.src.Registry != nil {
		snap := make(map[string]float64)
		st.src.Registry.VisitValues(func(key string, v float64) { snap[key] = v })
		st.metrics = snap
	}
	var added int
	if st.src.Sink != nil {
		for _, sp := range st.src.Sink.Spans() {
			if sp.Instance == "" {
				sp.Instance = st.src.InstanceID
			}
			tb := c.traces[sp.TraceID]
			if tb == nil {
				tb = &traceBuf{seen: make(map[string]bool, 8)}
				c.traces[sp.TraceID] = tb
			}
			tb.last = now
			if tb.seen[sp.SpanID] {
				continue
			}
			tb.seen[sp.SpanID] = true
			tb.spans = append(tb.spans, sp)
			st.spans++
			added++
		}
		c.evictTracesLocked()
	}
	return added
}

func (c *Collector) evictTracesLocked() {
	for len(c.traces) > c.maxTraces {
		var oldest string
		var oldestAt time.Time
		for id, tb := range c.traces {
			if oldest == "" || tb.last.Before(oldestAt) || (tb.last.Equal(oldestAt) && id < oldest) {
				oldest, oldestAt = id, tb.last
			}
		}
		delete(c.traces, oldest)
	}
}

// StartPolling scrapes every interval on a background goroutine until the
// returned stop function is called (stop waits for the goroutine to exit).
func (c *Collector) StartPolling(interval time.Duration) (stop func()) {
	if c == nil || interval <= 0 {
		return func() {}
	}
	done := make(chan struct{})
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				c.Collect()
			}
		}
	}()
	var once sync.Once
	return func() {
		once.Do(func() { close(done) })
		<-finished
	}
}

// Trace returns the stitched fleet-wide view of one TraceID.
func (c *Collector) Trace(traceID string) (StitchedTrace, bool) {
	if c == nil {
		return StitchedTrace{}, false
	}
	c.mu.Lock()
	tb, ok := c.traces[traceID]
	var spans []Span
	if ok {
		spans = append(spans, tb.spans...)
	}
	c.mu.Unlock()
	if !ok {
		return StitchedTrace{TraceID: traceID}, false
	}
	return Stitch(traceID, spans), true
}

// Summaries lists every collected trace, slowest first.
func (c *Collector) Summaries() []TraceSummary {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	var all []Span
	for _, tb := range c.traces {
		all = append(all, tb.spans...)
	}
	c.mu.Unlock()
	return SummarizeSpans(all)
}

// TraceIDs returns the ids of all collected traces (unordered count helper).
func (c *Collector) TraceIDs() []string {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	out := make([]string, 0, len(c.traces))
	for id := range c.traces {
		out = append(out, id)
	}
	c.mu.Unlock()
	sort.Strings(out)
	return out
}

// MetricValue returns one instance's last-scraped value for a series key.
func (c *Collector) MetricValue(instanceID, key string) (float64, bool) {
	if c == nil {
		return 0, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	st, ok := c.sources[instanceID]
	if !ok || st.metrics == nil {
		return 0, false
	}
	v, ok := st.metrics[key]
	return v, ok
}

// SumMetric sums a series key across every instance's last scrape — counter
// federation for the rollup (summing gauges is the caller's judgment call).
func (c *Collector) SumMetric(key string) float64 {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	var sum float64
	for _, st := range c.sources {
		if st.metrics != nil {
			sum += st.metrics[key]
		}
	}
	return sum
}

// Rollup assembles the /fleetz payload from the latest scrapes.
func (c *Collector) Rollup() FleetRollup {
	if c == nil {
		return FleetRollup{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	r := FleetRollup{Traces: len(c.traces)}
	ids := make([]string, 0, len(c.sources))
	for id := range c.sources {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	var commits, fanout, transfer [][]TopKEntry
	for _, id := range ids {
		st := c.sources[id]
		r.Instances = append(r.Instances, InstanceStatus{
			InstanceID: id,
			Alive:      st.alive,
			Spans:      st.spans,
			Events:     st.events,
			LastScrape: st.lastScrape,
			CleanExit:  st.cleanExit,
		})
		commits = append(commits, st.hot.Commits)
		fanout = append(fanout, st.hot.NotifyFanout)
		transfer = append(transfer, st.hot.Transfer)
	}
	r.HotCommits = MergeTopK(c.topK, commits...)
	r.HotNotifyFanout = MergeTopK(c.topK, fanout...)
	r.HotTransfer = MergeTopK(c.topK, transfer...)
	if n := len(c.events); n > 0 {
		tail := 20
		if n < tail {
			tail = n
		}
		r.RecentEvents = append(r.RecentEvents, c.events[n-tail:]...)
	}
	return r
}

// WriteFleetz renders the rollup as text — the /fleetz?format=text view.
func (c *Collector) WriteFleetz(w io.Writer) {
	r := c.Rollup()
	fmt.Fprintf(w, "fleet: %d instance(s), %d trace(s) collected\n", len(r.Instances), r.Traces)
	for _, st := range r.Instances {
		state := "alive"
		if !st.Alive {
			if st.CleanExit {
				state = "drained"
			} else {
				state = "crashed"
			}
		}
		fmt.Fprintf(w, "  %-22s %-8s spans=%-6d events=%d\n",
			st.InstanceID, state, st.Spans, st.Events)
	}
	writeTopK := func(name string, list []TopKEntry) {
		if len(list) == 0 {
			return
		}
		fmt.Fprintf(w, "hot %s:\n", name)
		for _, e := range list {
			fmt.Fprintf(w, "  %-22s %d (±%d)\n", e.Key, e.Count, e.Err)
		}
	}
	writeTopK("workspaces by commits", r.HotCommits)
	writeTopK("workspaces by notify fan-out", r.HotNotifyFanout)
	writeTopK("workspaces by transfer bytes", r.HotTransfer)
}

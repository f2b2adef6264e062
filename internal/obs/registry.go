// Package obs is the observability layer of the stack: a unified metrics
// registry (counters, gauges, histograms with label support), distributed
// tracing with an in-process span sink, and an admin/introspection HTTP
// surface. It is the one place the benchmarks, the chaos soak, the
// provisioner and the binaries read system state from — the same
// introspection-first design the paper's elasticity loop (§3.3) builds on,
// extended from per-queue stats to every hop of a sync commit.
//
// The package depends only on the stdlib and sits at the bottom of the
// import graph so that mq, omq, metastore, objstore, client and bench can
// all depend on it.
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a concurrency-safe monotonically increasing count.
type Counter struct {
	n atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.n.Add(1) }

// Add adds d.
func (c *Counter) Add(d uint64) { c.n.Add(d) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.n.Load() }

// Gauge is a concurrency-safe instantaneous value.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adds d to the current value.
func (g *Gauge) Add(d float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + d)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// DefaultBuckets are the histogram upper bounds used when none are given:
// exponential latency buckets from 1 ms to 60 s.
var DefaultBuckets = []float64{
	0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
	0.25, 0.5, 1, 2.5, 5, 10, 30, 60,
}

// Histogram accumulates observations into cumulative buckets plus count,
// sum, min and max. Observations are typically seconds.
type Histogram struct {
	mu      sync.Mutex
	buckets []float64 // upper bounds, ascending
	counts  []uint64  // len(buckets)+1; last is +Inf
	count   uint64
	sum     float64
	min     float64
	max     float64
}

func newHistogram(buckets []float64) *Histogram {
	if len(buckets) == 0 {
		buckets = DefaultBuckets
	}
	return &Histogram{buckets: buckets, counts: make([]uint64, len(buckets)+1)}
}

// Observe adds one sample.
func (h *Histogram) Observe(v float64) {
	h.mu.Lock()
	i := sort.SearchFloat64s(h.buckets, v)
	h.counts[i]++
	h.count++
	h.sum += v
	if h.count == 1 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	h.mu.Unlock()
}

// ObserveDuration adds one duration sample in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// HistogramSnapshot is a consistent view of a histogram.
type HistogramSnapshot struct {
	Count uint64
	Sum   float64
	Min   float64
	Max   float64
	// Buckets holds cumulative counts per upper bound (same order as the
	// histogram's bounds); the overflow bucket is Count minus the last entry.
	Bounds  []float64
	Buckets []uint64
}

// Mean returns the sample mean (0 when empty).
func (s HistogramSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / float64(s.Count)
}

// Snapshot copies the histogram state.
func (h *Histogram) Snapshot() HistogramSnapshot {
	h.mu.Lock()
	defer h.mu.Unlock()
	s := HistogramSnapshot{
		Count:  h.count,
		Sum:    h.sum,
		Min:    h.min,
		Max:    h.max,
		Bounds: append([]float64(nil), h.buckets...),
	}
	s.Buckets = make([]uint64, len(h.buckets))
	var cum uint64
	for i := range h.buckets {
		cum += h.counts[i]
		s.Buckets[i] = cum
	}
	return s
}

// Registry is a named collection of metric series. A series is a metric name
// plus a set of label pairs; the same (name, labels) always returns the same
// instrument, so call sites can look series up on the hot path or cache the
// pointer. All methods are safe for concurrent use.
type Registry struct {
	mu         sync.RWMutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	gaugeFuncs map[string]func() float64
	hists      map[string]*Histogram
	labels     map[string]seriesID // key -> parsed identity, for exposition
}

type seriesID struct {
	name   string
	labels []string // sorted k,v pairs
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		gaugeFuncs: make(map[string]func() float64),
		hists:      make(map[string]*Histogram),
		labels:     make(map[string]seriesID),
	}
}

// seriesKey renders the canonical identity of (name, labels). Labels are
// alternating key, value pairs; they are sorted by key so call sites can pass
// them in any order.
func seriesKey(name string, labels []string) (string, seriesID) {
	if len(labels)%2 != 0 {
		panic("obs: label pairs must be even (key, value, ...)")
	}
	if len(labels) == 0 {
		return name, seriesID{name: name}
	}
	type kv struct{ k, v string }
	pairs := make([]kv, 0, len(labels)/2)
	for i := 0; i < len(labels); i += 2 {
		pairs = append(pairs, kv{labels[i], labels[i+1]})
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].k < pairs[j].k })
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	sorted := make([]string, 0, len(labels))
	for i, p := range pairs {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", p.k, p.v)
		sorted = append(sorted, p.k, p.v)
	}
	b.WriteByte('}')
	return b.String(), seriesID{name: name, labels: sorted}
}

// Counter returns (creating if needed) the counter series for name+labels.
func (r *Registry) Counter(name string, labels ...string) *Counter {
	key, id := seriesKey(name, labels)
	r.mu.RLock()
	c, ok := r.counters[key]
	r.mu.RUnlock()
	if ok {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok = r.counters[key]; ok {
		return c
	}
	c = &Counter{}
	r.counters[key] = c
	r.labels[key] = id
	return c
}

// Gauge returns (creating if needed) the gauge series for name+labels.
func (r *Registry) Gauge(name string, labels ...string) *Gauge {
	key, id := seriesKey(name, labels)
	r.mu.RLock()
	g, ok := r.gauges[key]
	r.mu.RUnlock()
	if ok {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok = r.gauges[key]; ok {
		return g
	}
	g = &Gauge{}
	r.gauges[key] = g
	r.labels[key] = id
	return g
}

// GaugeFunc registers a lazily evaluated gauge: fn runs at read/scrape time,
// so registering one costs nothing on the hot path. Re-registering the same
// series replaces the function.
func (r *Registry) GaugeFunc(name string, fn func() float64, labels ...string) {
	key, id := seriesKey(name, labels)
	r.mu.Lock()
	r.gaugeFuncs[key] = fn
	r.labels[key] = id
	r.mu.Unlock()
}

// Histogram returns (creating if needed) the histogram series for
// name+labels, with DefaultBuckets.
func (r *Registry) Histogram(name string, labels ...string) *Histogram {
	key, id := seriesKey(name, labels)
	r.mu.RLock()
	h, ok := r.hists[key]
	r.mu.RUnlock()
	if ok {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok = r.hists[key]; ok {
		return h
	}
	h = newHistogram(nil)
	r.hists[key] = h
	r.labels[key] = id
	return h
}

// HistogramWith returns (creating if needed) the histogram series for
// name+labels using the given bucket upper bounds — for value domains the
// latency-oriented DefaultBuckets misrepresent, e.g. batch sizes. Buckets
// apply only on first creation; later calls return the existing series.
func (r *Registry) HistogramWith(buckets []float64, name string, labels ...string) *Histogram {
	key, id := seriesKey(name, labels)
	r.mu.RLock()
	h, ok := r.hists[key]
	r.mu.RUnlock()
	if ok {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok = r.hists[key]; ok {
		return h
	}
	h = newHistogram(buckets)
	r.hists[key] = h
	r.labels[key] = id
	return h
}

// VisitValues calls fn for every counter, gauge and gauge-func series with
// its canonical key and current value. Gauge funcs are evaluated outside the
// registry lock (they may themselves take locks).
func (r *Registry) VisitValues(fn func(key string, v float64)) {
	type kv struct {
		key string
		v   float64
	}
	r.mu.RLock()
	vals := make([]kv, 0, len(r.counters)+len(r.gauges))
	for key, c := range r.counters {
		vals = append(vals, kv{key, float64(c.Value())})
	}
	for key, g := range r.gauges {
		vals = append(vals, kv{key, g.Value()})
	}
	funcs := make(map[string]func() float64, len(r.gaugeFuncs))
	for key, f := range r.gaugeFuncs {
		funcs[key] = f
	}
	r.mu.RUnlock()
	for _, e := range vals {
		fn(e.key, e.v)
	}
	for key, f := range funcs {
		fn(key, f())
	}
}

// Unregister removes the series (of any kind) for name+labels.
func (r *Registry) Unregister(name string, labels ...string) {
	key, _ := seriesKey(name, labels)
	r.mu.Lock()
	delete(r.counters, key)
	delete(r.gauges, key)
	delete(r.gaugeFuncs, key)
	delete(r.hists, key)
	delete(r.labels, key)
	r.mu.Unlock()
}

// CounterValue reads a counter series; missing series read as 0.
func (r *Registry) CounterValue(name string, labels ...string) uint64 {
	key, _ := seriesKey(name, labels)
	r.mu.RLock()
	c := r.counters[key]
	r.mu.RUnlock()
	if c == nil {
		return 0
	}
	return c.Value()
}

// EachCounter calls fn for every series of the named counter with its label
// pairs (alternating key, value, sorted by key) and current value. fn runs
// outside the registry lock.
func (r *Registry) EachCounter(name string, fn func(labels []string, v uint64)) {
	type entry struct {
		labels []string
		c      *Counter
	}
	r.mu.RLock()
	var entries []entry
	for key, c := range r.counters {
		if id := r.labels[key]; id.name == name {
			entries = append(entries, entry{id.labels, c})
		}
	}
	r.mu.RUnlock()
	for _, e := range entries {
		fn(e.labels, e.c.Value())
	}
}

// GaugeValue reads a gauge or gauge-func series; the second return reports
// whether the series exists.
func (r *Registry) GaugeValue(name string, labels ...string) (float64, bool) {
	key, _ := seriesKey(name, labels)
	r.mu.RLock()
	g := r.gauges[key]
	fn := r.gaugeFuncs[key]
	r.mu.RUnlock()
	if g != nil {
		return g.Value(), true
	}
	if fn != nil {
		return fn(), true
	}
	return 0, false
}

// WriteText writes every series in a Prometheus-like text exposition, sorted
// by series key. Gauge funcs are evaluated at write time.
func (r *Registry) WriteText(w io.Writer) {
	type line struct {
		key  string
		text string
	}
	r.mu.RLock()
	lines := make([]line, 0, len(r.labels))
	for key, c := range r.counters {
		lines = append(lines, line{key, fmt.Sprintf("%s %d\n", key, c.Value())})
	}
	for key, g := range r.gauges {
		lines = append(lines, line{key, fmt.Sprintf("%s %g\n", key, g.Value())})
	}
	gaugeFuncs := make(map[string]func() float64, len(r.gaugeFuncs))
	for key, fn := range r.gaugeFuncs {
		gaugeFuncs[key] = fn
	}
	hists := make(map[string]*Histogram, len(r.hists))
	ids := make(map[string]seriesID, len(r.hists))
	for key, h := range r.hists {
		hists[key] = h
		ids[key] = r.labels[key]
	}
	r.mu.RUnlock()

	// Evaluate funcs and snapshot histograms outside the registry lock: a
	// gauge func may itself take locks (queue stats), and must not deadlock
	// against a concurrent registration.
	for key, fn := range gaugeFuncs {
		lines = append(lines, line{key, fmt.Sprintf("%s %g\n", key, fn())})
	}
	for key, h := range hists {
		id := ids[key]
		s := h.Snapshot()
		var b strings.Builder
		for i, bound := range s.Bounds {
			fmt.Fprintf(&b, "%s %d\n",
				exposedKey(id.name+"_bucket", append([]string{"le", formatBound(bound)}, id.labels...)),
				s.Buckets[i])
		}
		fmt.Fprintf(&b, "%s %d\n", exposedKey(id.name+"_bucket", append([]string{"le", "+Inf"}, id.labels...)), s.Count)
		fmt.Fprintf(&b, "%s %d\n", exposedKey(id.name+"_count", id.labels), s.Count)
		fmt.Fprintf(&b, "%s %g\n", exposedKey(id.name+"_sum", id.labels), s.Sum)
		lines = append(lines, line{key, b.String()})
	}
	sort.Slice(lines, func(i, j int) bool { return lines[i].key < lines[j].key })
	for _, l := range lines {
		_, _ = io.WriteString(w, l.text)
	}
}

// exposedKey renders the exposition key of one derived histogram line.
func exposedKey(name string, labels []string) string {
	key, _ := seriesKey(name, labels)
	return key
}

func formatBound(b float64) string {
	return strings.TrimRight(strings.TrimRight(fmt.Sprintf("%f", b), "0"), ".")
}

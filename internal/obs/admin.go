package obs

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sort"
	"strconv"
	"time"
)

// QueueInfo is the transport-agnostic per-queue snapshot /queuesz serves.
// The mq layer is adapted onto it by the binaries, keeping obs at the bottom
// of the import graph.
type QueueInfo struct {
	Name        string  `json:"name"`
	Depth       int     `json:"depth"`
	Unacked     int     `json:"unacked"`
	Consumers   int     `json:"consumers"`
	ArrivalRate float64 `json:"arrivalRate"`
	Enqueued    uint64  `json:"enqueued"`
	Acked       uint64  `json:"acked"`
	Redelivered uint64  `json:"redelivered"`
}

// ComponentHealth is one entry of a /healthz report.
type ComponentHealth struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// Health is the /healthz payload.
type Health struct {
	OK         bool              `json:"ok"`
	Components []ComponentHealth `json:"components,omitempty"`
}

// Admin is the introspection surface: /metrics, /healthz, /readyz, /tracez,
// /fleetz, /queuesz, /eventz (flight-recorder tail) and /debug/pprof.
// Provider fields are optional; missing ones degrade to empty responses so
// partial wiring still serves.
type Admin struct {
	// Registry backs /metrics.
	Registry *Registry
	// Tracer backs /tracez (its sink is read at request time).
	Tracer *Tracer
	// Health assembles the /healthz and /readyz reports; nil reports a bare
	// ok. Every live instance consumes the shared request queue, so a
	// serving process is also ready.
	Health func() Health
	// Queues lists per-queue stats for /queuesz.
	Queues func() []QueueInfo
	// Events backs /eventz with the flight-recorder tail.
	Events *EventLog
	// Fleet backs /fleetz with the live instances and the hot workspaces.
	Fleet func() FleetStatus
}

// FleetStatus is the /fleetz payload: the SyncService instances serving now
// and the deployment's hot-workspace top-K.
type FleetStatus struct {
	Instances []string    `json:"instances"`
	Hot       HotSnapshot `json:"hot"`
}

// Handler returns the HTTP handler serving the admin endpoints, including
// the net/http/pprof profiling surface under /debug/pprof/.
func (a *Admin) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", a.serveMetrics)
	mux.HandleFunc("/healthz", a.serveHealthz)
	mux.HandleFunc("/readyz", a.serveHealthz)
	mux.HandleFunc("/tracez", a.serveTracez)
	mux.HandleFunc("/fleetz", a.serveFleetz)
	mux.HandleFunc("/queuesz", a.serveQueuesz)
	mux.HandleFunc("/eventz", a.serveEventz)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

func (a *Admin) serveMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if a.Registry != nil {
		a.Registry.WriteText(w)
	}
}

func (a *Admin) serveHealthz(w http.ResponseWriter, _ *http.Request) {
	h := Health{OK: true}
	if a.Health != nil {
		h = a.Health()
	}
	writeHealth(w, h)
}

func writeHealth(w http.ResponseWriter, h Health) {
	w.Header().Set("Content-Type", "application/json")
	if !h.OK {
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	_ = json.NewEncoder(w).Encode(h)
}

// serveFleetz serves the live instance ids and the hot-workspace top-K
// lists. JSON with ?format=json, text otherwise.
func (a *Admin) serveFleetz(w http.ResponseWriter, r *http.Request) {
	if a.Fleet == nil {
		http.Error(w, "fleet collection not enabled", http.StatusNotFound)
		return
	}
	st := a.Fleet()
	if r.URL.Query().Get("format") == "json" {
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(st)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintf(w, "fleet: %d live instance(s)\n", len(st.Instances))
	for _, id := range st.Instances {
		fmt.Fprintf(w, "  %s\n", id)
	}
	for _, hot := range []struct {
		name string
		list []TopKEntry
	}{
		{"commits", st.Hot.Commits},
		{"notify fan-out", st.Hot.NotifyFanout},
		{"transfer bytes", st.Hot.Transfer},
	} {
		if len(hot.list) == 0 {
			continue
		}
		fmt.Fprintf(w, "hot workspaces by %s:\n", hot.name)
		for _, e := range hot.list {
			fmt.Fprintf(w, "  %-22s %d (±%d)\n", e.Key, e.Count, e.Err)
		}
	}
}

func (a *Admin) serveTracez(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	sink := a.Tracer.Sink()
	if sink == nil {
		fmt.Fprintln(w, "tracing disabled")
		return
	}
	if id := r.URL.Query().Get("trace"); id != "" {
		spans := sink.Trace(id)
		if len(spans) == 0 {
			http.Error(w, "unknown trace "+id, http.StatusNotFound)
			return
		}
		WriteTraceReport(w, id, spans)
		return
	}
	n := 10
	if v := r.URL.Query().Get("n"); v != "" {
		if parsed, err := strconv.Atoi(v); err == nil && parsed > 0 {
			n = parsed
		}
	}
	sums := sink.Summaries()
	fmt.Fprintf(w, "tracez: %d buffered traces, %d spans recorded\n\n", len(sums), sink.Recorded())
	if len(sums) > n {
		sums = sums[:n]
	}
	for _, s := range sums {
		fmt.Fprintf(w, "%s  %-32s %3d spans  %s\n",
			s.TraceID, s.Root, s.Spans, s.Duration.Round(time.Microsecond))
	}
	if len(sums) > 0 {
		fmt.Fprintln(w)
		WriteTraceReport(w, sums[0].TraceID, sink.Trace(sums[0].TraceID))
	}
}

func (a *Admin) serveQueuesz(w http.ResponseWriter, r *http.Request) {
	var queues []QueueInfo
	if a.Queues != nil {
		queues = a.Queues()
	}
	sort.Slice(queues, func(i, j int) bool { return queues[i].Name < queues[j].Name })
	if r.URL.Query().Get("format") == "json" {
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(queues)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintf(w, "%-40s %7s %7s %9s %9s %9s %7s %11s\n",
		"queue", "depth", "unacked", "consumers", "enqueued", "acked", "redeliv", "arrival/s")
	for _, q := range queues {
		fmt.Fprintf(w, "%-40s %7d %7d %9d %9d %9d %7d %11.2f\n",
			q.Name, q.Depth, q.Unacked, q.Consumers, q.Enqueued, q.Acked, q.Redelivered, q.ArrivalRate)
	}
}

// serveEventz serves the flight-recorder tail; ?n= bounds it (default 50)
// and ?format=json switches to JSON.
func (a *Admin) serveEventz(w http.ResponseWriter, r *http.Request) {
	n := 50
	if v := r.URL.Query().Get("n"); v != "" {
		if parsed, err := strconv.Atoi(v); err == nil && parsed > 0 {
			n = parsed
		}
	}
	events := a.Events.Tail(n)
	if r.URL.Query().Get("format") == "json" {
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(events)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if a.Events == nil {
		fmt.Fprintln(w, "eventz: no flight recorder configured")
		return
	}
	fmt.Fprintf(w, "eventz: %d retained, %d dropped, last seq %d\n\n",
		a.Events.Len(), a.Events.Dropped(), a.Events.Seq())
	for _, e := range events {
		fmt.Fprintf(w, "%6d  %s  %-20s %-14s %s\n",
			e.Seq, e.At.Format("15:04:05.000"), e.Kind, e.Source, e.Summary)
	}
}

// AdminServer is a running admin endpoint.
type AdminServer struct {
	srv *http.Server
	ln  net.Listener
}

// Serve starts the admin endpoint on addr (e.g. "127.0.0.1:7072"; port 0
// picks a free port). It returns once the listener is bound. Runtime
// self-telemetry gauges (goroutines, heap, GC pause) are registered in the
// registry, so every admin-enabled binary exports them.
func (a *Admin) Serve(addr string) (*AdminServer, error) {
	RegisterRuntimeMetrics(a.Registry)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: admin listen %s: %w", addr, err)
	}
	srv := &http.Server{Handler: a.Handler()}
	go func() { _ = srv.Serve(ln) }()
	return &AdminServer{srv: srv, ln: ln}, nil
}

// Addr returns the bound address.
func (s *AdminServer) Addr() string { return s.ln.Addr().String() }

// Close stops the server.
func (s *AdminServer) Close() error { return s.srv.Close() }

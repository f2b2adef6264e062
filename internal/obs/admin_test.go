package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func get(t *testing.T, srv *httptest.Server, path string) (int, string) {
	t.Helper()
	resp, err := http.Get(srv.URL + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read %s: %v", path, err)
	}
	return resp.StatusCode, string(body)
}

// TestAdminDegraded: a bare Admin with nothing wired must still serve every
// endpoint — partial wiring degrades, it does not 500 — and nothing else.
func TestAdminDegraded(t *testing.T) {
	srv := httptest.NewServer((&Admin{}).Handler())
	defer srv.Close()

	for _, c := range []struct {
		path, want string
		code       int
	}{
		{"/metrics", "", 200},
		{"/healthz", `"ok":true`, 200},
		{"/readyz", `"ok":true`, 200},
		{"/tracez", "tracing disabled", 200},
		{"/queuesz", "queue", 200},
		{"/eventz", "no flight recorder configured", 200},
		{"/eventz?format=json", "null", 200},
		{"/fleetz", "fleet collection not enabled", http.StatusNotFound},
		{"/debug/pprof/", "goroutine", 200},
	} {
		code, body := get(t, srv, c.path)
		if code != c.code || !strings.Contains(body, c.want) || (c.path == "/metrics" && body != "") {
			t.Errorf("%s: %d %q, want %d containing %q", c.path, code, body, c.code, c.want)
		}
	}
	// The retired time-series and elasticity endpoints are gone: history
	// belongs to whatever scrapes /metrics.
	for _, retired := range []string{"varz", "elasticz"} {
		if code, _ := get(t, srv, "/"+retired); code != http.StatusNotFound {
			t.Errorf("/%s: %d, want 404", retired, code)
		}
	}
}

func TestAdminHealthzUnhealthy(t *testing.T) {
	a := &Admin{Health: func() Health {
		return Health{OK: false, Components: []ComponentHealth{{Name: "mq", OK: false, Detail: "closed"}}}
	}}
	srv := httptest.NewServer(a.Handler())
	defer srv.Close()
	code, body := get(t, srv, "/healthz")
	if code != http.StatusServiceUnavailable {
		t.Fatalf("unhealthy /healthz status = %d, want 503", code)
	}
	if !strings.Contains(body, "closed") {
		t.Fatalf("component detail missing: %q", body)
	}
}

func TestAdminTracez(t *testing.T) {
	tr := NewTracer()
	root := tr.StartRoot("commit")
	child := tr.StartChild(root.Context(), "store")
	child.End()
	root.End()
	id := root.Context().TraceID

	srv := httptest.NewServer((&Admin{Tracer: tr}).Handler())
	defer srv.Close()

	code, body := get(t, srv, "/tracez")
	if code != 200 || !strings.Contains(body, "commit") {
		t.Fatalf("/tracez listing: %d %q", code, body)
	}
	code, body = get(t, srv, "/tracez?trace="+id)
	if code != 200 || !strings.Contains(body, "critical path:") || !strings.Contains(body, "store") {
		t.Fatalf("/tracez detail: %d %q", code, body)
	}
	if code, _ = get(t, srv, "/tracez?trace=nope"); code != http.StatusNotFound {
		t.Fatalf("unknown trace status = %d, want 404", code)
	}
}

// TestAdminFleetz: /fleetz renders the provider's live instances and hot
// workspaces, as text and as JSON.
func TestAdminFleetz(t *testing.T) {
	hot := NewHotStats(4)
	hot.ObserveCommit("shared", 2, 1024)
	hot.ObserveCommit("shared", 2, 1024)
	hot.ObserveCommit("other", 1, 10)
	a := &Admin{Fleet: func() FleetStatus {
		return FleetStatus{Instances: []string{"i-1", "i-2"}, Hot: hot.Snapshot()}
	}}
	srv := httptest.NewServer(a.Handler())
	defer srv.Close()

	code, body := get(t, srv, "/fleetz")
	for _, want := range []string{"2 live instance(s)", "i-1", "i-2", "hot workspaces by commits", "shared"} {
		if code != 200 || !strings.Contains(body, want) {
			t.Fatalf("/fleetz: %d lacks %q:\n%s", code, want, body)
		}
	}
	_, body = get(t, srv, "/fleetz?format=json")
	var st FleetStatus
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatalf("/fleetz json: %v in %q", err, body)
	}
	if len(st.Instances) != 2 || len(st.Hot.Commits) == 0 || st.Hot.Commits[0].Key != "shared" || st.Hot.Commits[0].Count != 2 {
		t.Fatalf("/fleetz json decoded %+v", st)
	}
}

func TestAdminMetricsAndQueuesz(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("commits_total", "oid", "sync").Add(3)
	a := &Admin{
		Registry: reg,
		Queues: func() []QueueInfo {
			return []QueueInfo{
				{Name: "z-queue", Depth: 1},
				{Name: "a-queue", Depth: 2, Consumers: 1, Enqueued: 9},
			}
		},
	}
	srv := httptest.NewServer(a.Handler())
	defer srv.Close()

	if _, body := get(t, srv, "/metrics"); !strings.Contains(body, `commits_total{oid="sync"} 3`) {
		t.Fatalf("/metrics body: %q", body)
	}

	_, body := get(t, srv, "/queuesz")
	if !strings.Contains(body, "a-queue") || !strings.Contains(body, "z-queue") {
		t.Fatalf("/queuesz body: %q", body)
	}
	// Sorted by name: a-queue before z-queue.
	if strings.Index(body, "a-queue") > strings.Index(body, "z-queue") {
		t.Fatalf("/queuesz not sorted:\n%s", body)
	}

	_, body = get(t, srv, "/queuesz?format=json")
	var queues []QueueInfo
	if err := json.Unmarshal([]byte(body), &queues); err != nil {
		t.Fatalf("/queuesz json: %v in %q", err, body)
	}
	if len(queues) != 2 || queues[0].Name != "a-queue" || queues[0].Enqueued != 9 {
		t.Fatalf("/queuesz json decoded %+v", queues)
	}
}

// TestAdminServe exercises the real listener path used by the binaries.
func TestAdminServe(t *testing.T) {
	srv, err := (&Admin{}).Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	resp, err := http.Get("http://" + srv.Addr() + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestAdminEventz(t *testing.T) {
	at := time.Date(2026, 8, 6, 12, 0, 0, 0, time.UTC)
	l := NewEventLog(8)
	l.Append(Event{At: at, Kind: EventProvisionDecision, Source: "provision.combined", Summary: "predictive: 3 instances"})
	l.Append(Event{At: at.Add(time.Second), Kind: EventSupervisorScale, Source: "omq.supervisor", Summary: "sync: 1 → 3"})
	srv := httptest.NewServer((&Admin{Events: l}).Handler())
	defer srv.Close()

	code, body := get(t, srv, "/eventz")
	if code != 200 || !strings.Contains(body, "provision.decision") || !strings.Contains(body, "supervisor.scale") {
		t.Fatalf("/eventz: %d %q", code, body)
	}
	code, body = get(t, srv, "/eventz?format=json&n=1")
	if code != 200 {
		t.Fatalf("/eventz json: %d", code)
	}
	var events []Event
	if err := json.Unmarshal([]byte(body), &events); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(events) != 1 || events[0].Seq != l.Seq() {
		t.Fatalf("json tail = %+v, want newest seq %d", events, l.Seq())
	}
}

func TestAdminPprofAndRuntimeMetrics(t *testing.T) {
	reg := NewRegistry()
	a := &Admin{Registry: reg}
	srv := httptest.NewServer(a.Handler())
	defer srv.Close()

	if code, body := get(t, srv, "/debug/pprof/"); code != 200 || !strings.Contains(body, "goroutine") {
		t.Fatalf("/debug/pprof/: %d", code)
	}

	RegisterRuntimeMetrics(reg)
	RegisterRuntimeMetrics(reg) // idempotent
	code, body := get(t, srv, "/metrics")
	if code != 200 {
		t.Fatalf("/metrics: %d", code)
	}
	for _, name := range []string{"go_goroutines", "go_heap_bytes", "go_gc_pause_seconds"} {
		if strings.Count(body, name) != 1 {
			t.Fatalf("runtime gauge %s appears %d times in /metrics:\n%s", name, strings.Count(body, name), body)
		}
	}
}

package bench

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"stacksync/internal/core"
	"stacksync/internal/obs"
)

// TestEndToEndCommitTrace runs a real two-device sync through the full stack
// and checks the observability contract of PR 2: one commit yields one trace
// whose spans cover every hop, whose parent links all resolve inside the
// trace, and whose critical-path sum stays within the measured end-to-end
// latency.
func TestEndToEndCommitTrace(t *testing.T) {
	tracer := obs.NewTracer()
	reg := obs.NewRegistry()
	st, err := NewStack(StackOptions{Devices: 2, Tracer: tracer, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	t0 := time.Now()
	if err := st.Client(0).PutFile("a/traced.txt", []byte("end-to-end tracing payload")); err != nil {
		t.Fatal(err)
	}
	if err := st.Client(1).WaitForVersion("a/traced.txt", 1, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	id, spans, err := commitTrace(tracer.Sink(), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(t0)

	if len(spans) < 5 {
		t.Fatalf("commit trace %s has %d spans, want >= 5", id, len(spans))
	}
	ids := make(map[string]bool, len(spans))
	for _, sp := range spans {
		ids[sp.SpanID] = true
	}
	roots := 0
	for _, sp := range spans {
		if sp.End.Before(sp.Start) {
			t.Errorf("span %s ends before it starts", sp.Name)
		}
		if sp.ParentID == "" {
			roots++
			if sp.Name != "client.commit" {
				t.Errorf("root span is %q, want client.commit", sp.Name)
			}
			continue
		}
		if !ids[sp.ParentID] {
			t.Errorf("span %s has parent %s outside the trace", sp.Name, sp.ParentID)
		}
	}
	if roots != 1 {
		t.Errorf("trace has %d roots, want 1", roots)
	}

	names := make(map[string]int)
	for _, sp := range spans {
		names[sp.Name]++
	}
	for _, want := range []string{
		"client.commit",           // root on the writer
		"objstore.put",            // chunk upload
		"omq.async.CommitRequest", // publish to the service queue
		"mq.dwell",                // queue wait reconstructed at the receiver
		"omq.handle.CommitRequest",
		"metastore.commitBatch",
		"omq.multi.NotifyCommit", // fan-out publish
		"omq.handle.NotifyCommit",
		"client.applyNotification", // remote device applies the commit
		"objstore.get",             // remote device downloads the chunk
	} {
		if names[want] == 0 {
			t.Errorf("trace has no %q span (got %v)", want, names)
		}
	}

	var sum time.Duration
	for _, seg := range obs.CriticalPath(spans) {
		sum += seg.Self
	}
	if sum <= 0 {
		t.Fatalf("critical path sums to %v", sum)
	}
	if sum > elapsed {
		t.Errorf("critical path %v exceeds measured end-to-end latency %v", sum, elapsed)
	}

	// The shared registry saw every layer of the same commit.
	for _, series := range []struct {
		name   string
		labels []string
	}{
		{"omq_queue_depth", []string{"oid", core.ServiceOID}},
		{"mq_bytes_up", []string{"link", "dev-0"}},
		{"objstore_bytes_up", []string{"device", "dev-0"}},
		{"objstore_bytes_down", []string{"device", "dev-1"}},
		{"client_upload_queue_depth", []string{"device", "dev-0"}},
	} {
		if _, ok := reg.GaugeValue(series.name, series.labels...); !ok {
			t.Errorf("registry has no %s%v series", series.name, series.labels)
		}
	}
}

// TestAdminEndpoints serves the four admin endpoints over a live stack and
// checks each one answers with the expected content.
func TestAdminEndpoints(t *testing.T) {
	tracer := obs.NewTracer()
	reg := obs.NewRegistry()
	st, err := NewStack(StackOptions{Devices: 2, Tracer: tracer, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := st.Client(0).PutFile("x.txt", []byte("admin endpoint payload")); err != nil {
		t.Fatal(err)
	}
	if err := st.Client(1).WaitForVersion("x.txt", 1, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	if _, _, err := commitTrace(tracer.Sink(), 2*time.Second); err != nil {
		t.Fatal(err)
	}

	admin := &obs.Admin{
		Registry: reg,
		Tracer:   tracer,
		Queues:   st.Fleet.Queues,
		Health: func() obs.Health {
			return obs.Health{OK: true, Components: []obs.ComponentHealth{{Name: "mq", OK: true}}}
		},
	}
	srv := httptest.NewServer(admin.Handler())
	defer srv.Close()

	for path, want := range map[string]string{
		"/metrics": "omq_queue_depth",
		"/healthz": `"ok":true`,
		"/tracez":  "client.commit",
		"/queuesz": "consumers",
	} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("read %s: %v", path, err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s: status %d", path, resp.StatusCode)
		}
		if !strings.Contains(string(body), want) {
			t.Errorf("GET %s: body lacks %q:\n%s", path, want, body)
		}
	}
}

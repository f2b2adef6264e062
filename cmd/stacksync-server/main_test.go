package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"

	"stacksync/internal/core"
	"stacksync/internal/metastore"
	"stacksync/internal/mq"
	"stacksync/internal/obs"
	"stacksync/internal/omq"
)

func testOptions(t *testing.T) options {
	return options{
		listen: "127.0.0.1:0", storageListen: "127.0.0.1:0", dataDir: t.TempDir(),
		workspace: "shared", users: "alice", minInstances: 1, maxInstances: 1,
	}
}

// TestServesWhenStartReturns dials the broker the moment start returns: a
// commit must be acked at once, not after the Supervisor's first check.
func TestServesWhenStartReturns(t *testing.T) {
	srv, err := start(testOptions(t))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.stop()
	began := time.Now()
	conn, err := mq.Dial(srv.fleet.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	b, err := omq.NewBroker(conn)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	req := core.CommitRequest{Workspace: "shared", DeviceID: "d", Items: []metastore.ItemVersion{{
		Workspace: "shared", ItemID: "shared:a.txt", Path: "a.txt", Version: 1, Status: metastore.Added, DeviceID: "d",
	}}}
	const budget = 500 * time.Millisecond
	proxy := b.Lookup(core.ServiceOID, omq.WithTimeout(budget), omq.WithRetries(1))
	if err := proxy.Call("CommitRequest", nil, req); err != nil {
		t.Fatalf("commit right after start: %v", err)
	}
	if took := time.Since(began); took > budget {
		t.Fatalf("commit acked after %v, want within %v", took, budget)
	}
}

// TestStartFailsWhenStoragePortTaken occupies the gateway's port first: start
// must fail instead of coming up without storage.
func TestStartFailsWhenStoragePortTaken(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	o := testOptions(t)
	o.storageListen = ln.Addr().String()
	if srv, err := start(o); err == nil {
		srv.stop()
		t.Fatal("start succeeded with the storage port taken")
	} else if !strings.Contains(err.Error(), "storage gateway") {
		t.Fatalf("error %q does not name the storage gateway", err)
	}
	// The failed start released the data directory: a retry on a free port
	// comes up on the same one.
	o.storageListen = "127.0.0.1:0"
	srv, err := start(o)
	if err != nil {
		t.Fatalf("retry: %v", err)
	}
	srv.stop()
}

// TestAdminSeesEveryInstance: with -admin, the admin surface of a
// two-instance server sees both instances' handling of traced commits from a
// remote client — their handler metrics on /metrics, every server-side span
// of a commit's trace on /tracez, and both instances with the hot workspace
// on /fleetz. /metrics also carries the broker server's and the chunk
// store's I/O counters.
func TestAdminSeesEveryInstance(t *testing.T) {
	o := testOptions(t)
	o.admin, o.minInstances, o.maxInstances = "127.0.0.1:0", 2, 2
	srv, err := start(o)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.stop()
	conn, err := mq.Dial(srv.fleet.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	tracer := obs.NewTracer() // the client's own, as in another process
	b, err := omq.NewBroker(conn, omq.WithTracer(tracer))
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	const commits = 6
	proxy := b.Lookup(core.ServiceOID, omq.WithTimeout(2*time.Second))
	var traceID string
	for i := 0; i < commits; i++ {
		path := fmt.Sprintf("f%d.txt", i)
		root := tracer.StartRoot("client.commit")
		err := proxy.CallCtx(obs.ContextWith(context.Background(), root.Context()), "CommitRequest", nil,
			core.CommitRequest{Workspace: "shared", DeviceID: "d", Items: []metastore.ItemVersion{{
				Workspace: "shared", ItemID: "shared:" + path, Path: path, Version: 1, Status: metastore.Added, DeviceID: "d",
			}}})
		root.End()
		if err != nil {
			t.Fatalf("commit %d: %v", i, err)
		}
		traceID = root.Context().TraceID
	}
	admin := "http://" + srv.admin.Addr()

	metrics := httpGet(t, admin+"/metrics")
	var handled int
	serviceMeans := 0
	for _, line := range strings.Split(metrics, "\n") {
		if v, ok := strings.CutPrefix(line, `omq_handle_seconds_count{oid="syncservice"} `); ok {
			handled, _ = strconv.Atoi(v)
		}
		if strings.HasPrefix(line, "omq_service_mean_seconds{") && strings.Contains(line, `oid="syncservice"`) {
			serviceMeans++
		}
	}
	if handled < commits || serviceMeans != 2 {
		t.Fatalf("/metrics: %d handled calls (want >= %d), %d omq_service_mean_seconds lines (want 2):\n%s",
			handled, commits, serviceMeans, metrics)
	}
	// The broker's write coalescing and the chunk store's file reads are on
	// /metrics as counter pairs: frames per write, file reads per get; the
	// chunk store's growth is its log's length and object count.
	for _, series := range []string{"mq_server_writes_total", "mq_server_frames_total",
		"objstore_disk_gets_total", "objstore_disk_file_reads_total",
		"objstore_disk_log_bytes", "objstore_disk_objects"} {
		if !strings.Contains(metrics, "\n"+series+" ") {
			t.Fatalf("/metrics lacks %s:\n%s", series, metrics)
		}
	}

	// The notification fan-out is published after the reply: poll for it.
	var trace string
	deadline := time.Now().Add(5 * time.Second)
	for {
		trace = httpGet(t, admin+"/tracez?trace="+traceID)
		if strings.Contains(trace, "omq.multi.NotifyCommit") || time.Now().After(deadline) {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	for _, want := range []string{"omq.handle.CommitRequest", "metastore.commitBatch", "omq.multi.NotifyCommit"} {
		if !strings.Contains(trace, want) {
			t.Fatalf("/tracez?trace=%s lacks %s:\n%s", traceID, want, trace)
		}
	}
	if strings.Contains(trace, "PARTIAL") {
		t.Fatalf("/tracez?trace=%s flags a partial trace:\n%s", traceID, trace)
	}

	var fleetz obs.FleetStatus
	if err := json.Unmarshal([]byte(httpGet(t, admin+"/fleetz?format=json")), &fleetz); err != nil {
		t.Fatal(err)
	}
	if len(fleetz.Instances) != 2 || len(fleetz.Hot.Commits) == 0 || fleetz.Hot.Commits[0].Key != "shared" {
		t.Fatalf("/fleetz = %+v, want 2 live instances and shared hottest", fleetz)
	}
}

func httpGet(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %d %v", url, resp.StatusCode, err)
	}
	return string(body)
}

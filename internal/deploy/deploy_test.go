package deploy

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"testing"
	"time"

	"stacksync/internal/client"
	"stacksync/internal/core"
	"stacksync/internal/faults"
	"stacksync/internal/metastore"
	"stacksync/internal/mq"
	"stacksync/internal/objstore"
	"stacksync/internal/obs"
	"stacksync/internal/omq"
	"stacksync/internal/reclog"
)

// device connects a client to f over its TCP broker and HTTP gateway, the
// way a device on another machine would.
func device(t *testing.T, f *Fleet, id string) *client.Client {
	t.Helper()
	conn, err := mq.Dial(f.Addr())
	if err != nil {
		t.Fatal(err)
	}
	b, err := omq.NewBroker(conn)
	if err != nil {
		t.Fatal(err)
	}
	c, err := client.NewClient(client.Config{
		UserID: "alice", DeviceID: id, WorkspaceID: "ws", Broker: b,
		Storage: objstore.NewHTTPStore("http://"+f.StorageAddr(), "token"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		_ = c.Close()
		_ = b.Close()
		_ = conn.Close()
	})
	return c
}

// TestDurableRoundTrip commits over real sockets into a durable deployment,
// restarts it on the same directory, and checks a fresh device sees the file.
func TestDurableRoundTrip(t *testing.T) {
	cfg := Config{
		DataDir: t.TempDir(), Listen: "127.0.0.1:0",
		StorageListen: "127.0.0.1:0", StorageToken: "token",
		Workspaces: []metastore.Workspace{{ID: "ws", Owner: "alice"}},
	}
	f, err := Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := bytes.Repeat([]byte("durable "), 1000)
	writer := device(t, f, "laptop")
	if err := writer.PutFile("notes.txt", want); err != nil {
		t.Fatal(err)
	}
	if err := writer.WaitForVersion("notes.txt", 1, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	_ = writer.Close()
	if err := f.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if err := f.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}

	f, err = Start(cfg)
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	defer f.Close()
	reader := device(t, f, "phone")
	if err := reader.WaitForVersion("notes.txt", 1, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	if got, _ := reader.FileContent("notes.txt"); !bytes.Equal(got, want) {
		t.Fatalf("fresh device read %d bytes, want %d", len(got), len(want))
	}
}

// TestSecondStartOnLiveDataDirIsRefused: a second deployment on the data
// directory of a running one is refused, since its recovery would cut the
// logs under the first one's mappings. The first keeps committing, past a
// page of its metadata WAL, and every commit survives a restart.
func TestSecondStartOnLiveDataDirIsRefused(t *testing.T) {
	cfg := Config{
		DataDir: t.TempDir(), Listen: "127.0.0.1:0",
		StorageListen: "127.0.0.1:0", StorageToken: "token",
		Workspaces: []metastore.Workspace{{ID: "ws", Owner: "alice"}},
	}
	f, err := Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	writer := device(t, f, "laptop")
	commit := func(i int) {
		t.Helper()
		name := fmt.Sprintf("file-%02d.txt", i)
		if err := writer.PutFile(name, bytes.Repeat([]byte{byte(i)}, 500)); err != nil {
			t.Fatal(err)
		}
		if err := writer.WaitForVersion(name, 1, 5*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	commit(0)
	if second, err := Start(cfg); !errors.Is(err, reclog.ErrInUse) {
		if second != nil {
			_ = second.Close()
		}
		t.Fatalf("second Start on a live data directory: %v, want reclog.ErrInUse", err)
	}
	const files = 48 // ~5 KB of WAL records
	for i := 1; i < files; i++ {
		commit(i)
	}
	_ = writer.Close()
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if f, err = Start(cfg); err != nil {
		t.Fatalf("restart: %v", err)
	}
	defer f.Close()
	reader := device(t, f, "phone")
	for i := 0; i < files; i++ {
		if err := reader.WaitForVersion(fmt.Sprintf("file-%02d.txt", i), 1, 5*time.Second); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSupervisedRoutedFleet starts a supervised fleet — N instances the MQ
// routes calls to through the shared request queue — waits for all N,
// checks Status lists each of them, drives concurrent traced commits into
// the one sink and sketch they share, and checks Close leaves no goroutine
// behind.
func TestSupervisedRoutedFleet(t *testing.T) {
	const n = 3
	before := runtime.NumGoroutine()
	tracer := obs.NewTracer()
	f, err := Start(Config{
		Workspaces: []metastore.Workspace{{ID: "ws", Owner: "alice"}},
		Supervisor: &omq.SupervisorConfig{
			Provisioner: omq.FixedProvisioner(n), MaxInstances: n,
			CheckEvery: 20 * time.Millisecond,
		},
		Tracer: tracer, Registry: obs.NewRegistry(), Events: obs.NewEventLog(64),
	})
	if err != nil {
		t.Fatal(err)
	}
	if f.Instances() < 1 {
		t.Fatalf("Start returned with %d instances", f.Instances())
	}
	if err := f.WaitInstances(n, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	live := f.Status().Instances
	if len(live) != n {
		t.Fatalf("Status lists %d instances, want %d", len(live), n)
	}

	const writers, commits = 4, 5
	cb, err := omq.NewBroker(f.MQ, omq.WithTracer(tracer.ForInstance("client")))
	if err != nil {
		t.Fatal(err)
	}
	service := cb.Lookup(core.ServiceOID, omq.WithTimeout(2*time.Second))
	errs := make(chan error, writers)
	for w := 0; w < writers; w++ {
		go func(w int) {
			var err error
			for k := 0; k < commits && err == nil; k++ {
				path := fmt.Sprintf("w%d/%d.txt", w, k)
				root := tracer.StartRoot("client.commit")
				err = service.CallCtx(obs.ContextWith(context.Background(), root.Context()), "CommitRequest", nil,
					core.CommitRequest{Workspace: "ws", DeviceID: "d", Items: []metastore.ItemVersion{{
						Workspace: "ws", ItemID: "ws:" + path, Path: path, Version: 1, Status: metastore.Added, DeviceID: "d",
					}}})
				root.End()
			}
			errs <- err
		}(w)
	}
	for w := 0; w < writers; w++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	_ = cb.Close()
	if hot := f.Status().Hot.Commits; len(hot) != 1 || hot[0].Key != "ws" || hot[0].Count != writers*commits {
		t.Fatalf("hot commits %+v, want ws with %d", hot, writers*commits)
	}
	metaSpans := 0
	for _, sp := range tracer.Sink().Spans() {
		if sp.Name != "metastore.commitBatch" {
			continue
		}
		metaSpans++
		if !slices.Contains(live, sp.Instance) {
			t.Fatalf("span %s stamped %q, not a live instance %v", sp.Name, sp.Instance, live)
		}
	}
	if metaSpans != writers*commits {
		t.Fatalf("%d metastore.commitBatch spans in the sink, want %d", metaSpans, writers*commits)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	_ = f.Close()

	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		buf := make([]byte, 1<<16)
		t.Fatalf("%d goroutines before Start, %d after Close:\n%s", before, after, buf[:runtime.Stack(buf, true)])
	}
}

// TestFaultSeamFiresOnBothSites checks Config.Faults reaches the metadata
// store and the notification publishes.
func TestFaultSeamFiresOnBothSites(t *testing.T) {
	plan := faults.NewPlan(faults.Config{Seed: 1, Sites: map[string]faults.SiteConfig{
		FaultSiteMeta:   {AbortP: 0.3},
		FaultSiteNotify: {DropP: 0.3},
	}})
	f, err := Start(Config{Faults: plan, Workspaces: []metastore.Workspace{{ID: "ws", Owner: "alice"}}})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	b, err := omq.NewBroker(f.MQ)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	proxy := b.Lookup(core.ServiceOID)
	deadline := time.Now().Add(5 * time.Second)
	for i := 0; ; i++ {
		c := plan.Counts()
		if c["meta/abort"] > 0 && c["mq.notif/drop"] > 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("after %d commits fault counts are %v, want meta/abort and mq.notif/drop", i, c)
		}
		path := fmt.Sprintf("f%d.txt", i)
		_ = proxy.Call("CommitRequest", nil, core.CommitRequest{Workspace: "ws", DeviceID: "d",
			Items: []metastore.ItemVersion{{Workspace: "ws", ItemID: "ws:" + path, Path: path,
				Version: 1, Status: metastore.Added, DeviceID: "d"}}})
	}
}

package bench

import (
	"context"
	"fmt"
	"testing"
	"time"

	"stacksync/internal/chunker"
	"stacksync/internal/client"
	"stacksync/internal/core"
	"stacksync/internal/metastore"
	"stacksync/internal/mq"
	"stacksync/internal/objstore"
	"stacksync/internal/omq"
	"stacksync/internal/provision"
)

// TestElasticSyncServiceEndToEnd ties the whole paper together on real
// queues: a Supervisor runs the backlog-aware reactive policy over
// RemoteBroker-spawned SyncService instances while a client floods
// commitRequests. The fleet must grow under the burst, every commit must
// land, and the fleet must shrink back once the burst ends.
func TestElasticSyncServiceEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second elasticity experiment")
	}
	m := mq.NewBroker()
	defer m.Close()
	meta := metastore.NewStore()
	defer meta.Close()
	if err := meta.CreateWorkspace(metastore.Workspace{ID: "el-ws", Owner: "u"}); err != nil {
		t.Fatal(err)
	}
	storage := objstore.NewMemory()

	nodeBroker, err := omq.NewBroker(m, omq.WithID("10-node"))
	if err != nil {
		t.Fatal(err)
	}
	defer nodeBroker.Close()
	rb, err := omq.NewRemoteBroker(nodeBroker)
	if err != nil {
		t.Fatal(err)
	}
	defer rb.Close()
	notifBroker, err := omq.NewBroker(m, omq.WithID("20-notif"))
	if err != nil {
		t.Fatal(err)
	}
	defer notifBroker.Close()
	// Each instance sleeps per request so a single instance saturates
	// quickly and backlog builds. The delay is long enough that the burst
	// below outruns one instance even when the client itself is slowed
	// (race detector, loaded host): a 4 ms delay let a slowed client's
	// arrivals stay inside one instance's capacity, so no scale-out came.
	const serviceTime = 20 * time.Millisecond
	rb.RegisterFactory(core.ServiceOID, func() (interface{}, error) {
		return &slowServiceAPI{inner: core.NewService(meta, notifBroker).API(), delay: serviceTime}, nil
	})
	if err := m.DeclareQueue(core.ServiceOID); err != nil {
		t.Fatal(err)
	}

	sla := provision.SLA{D: 5 * serviceTime, S: serviceTime, VarService: 1e-6}
	reactive := provision.NewReactive(sla, 0.2, 0.2, nil)
	reactive.DrainWindow = 500 * time.Millisecond
	supBroker, err := omq.NewBroker(m, omq.WithID("00-sup"))
	if err != nil {
		t.Fatal(err)
	}
	defer supBroker.Close()
	sup, err := omq.StartSupervisor(supBroker, omq.SupervisorConfig{
		OID:          core.ServiceOID,
		CheckEvery:   50 * time.Millisecond,
		Provisioner:  reactive,
		MaxInstances: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sup.Stop()
	waitInstances := func(min int) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for rb.InstanceCount(core.ServiceOID) < min {
			if time.Now().After(deadline) {
				t.Fatalf("fleet stuck at %d instances, want >= %d", rb.InstanceCount(core.ServiceOID), min)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	waitInstances(1)

	clientBroker, err := omq.NewBroker(m, omq.WithID("30-client"))
	if err != nil {
		t.Fatal(err)
	}
	defer clientBroker.Close()
	cl, err := client.NewClient(client.Config{
		UserID: "u", DeviceID: "d", WorkspaceID: "el-ws",
		Broker: clientBroker, Storage: storage,
		Chunker: chunker.Fixed{ChunkSize: 4 << 10},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Start(); err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	// Burst: fire many async commits far faster than one instance drains.
	const commits = 400
	for i := 0; i < commits; i++ {
		if err := cl.PutFile(fmt.Sprintf("burst/f%04d.txt", i), []byte(fmt.Sprintf("v-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	// The backlog forces a scale-out.
	waitInstances(2)
	// Every commit lands despite the churn.
	for i := 0; i < commits; i++ {
		if err := cl.WaitForVersion(fmt.Sprintf("burst/f%04d.txt", i), 1, 30*time.Second); err != nil {
			t.Fatalf("commit %d lost: %v", i, err)
		}
	}
	// With the queue drained and arrivals at zero, the Supervisor shrinks
	// the pool back to the floor.
	deadline := time.Now().Add(15 * time.Second)
	for rb.InstanceCount(core.ServiceOID) > 1 {
		if time.Now().After(deadline) {
			t.Fatalf("fleet never shrank: %d instances", rb.InstanceCount(core.ServiceOID))
		}
		time.Sleep(20 * time.Millisecond)
	}
	if len(sup.History()) == 0 {
		t.Fatal("no scale events recorded")
	}
}

// slowServiceAPI wraps the SyncService API with a fixed per-request delay,
// standing in for the paper's 50 ms commit service time at test scale.
type slowServiceAPI struct {
	inner *core.API
	delay time.Duration
}

// CommitRequest forwards after the modelled service time.
func (s *slowServiceAPI) CommitRequest(ctx context.Context, req core.CommitRequest) error {
	time.Sleep(s.delay)
	return s.inner.CommitRequest(ctx, req)
}

// GetChangesSince forwards.
func (s *slowServiceAPI) GetChangesSince(ctx context.Context, workspace string, since uint64) (core.ChangesReply, error) {
	return s.inner.GetChangesSince(ctx, workspace, since)
}

// GetWorkspaces forwards.
func (s *slowServiceAPI) GetWorkspaces(user string) ([]metastore.Workspace, error) {
	return s.inner.GetWorkspaces(user)
}

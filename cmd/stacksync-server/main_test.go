package main

import (
	"net"
	"strings"
	"testing"
	"time"

	"stacksync/internal/core"
	"stacksync/internal/metastore"
	"stacksync/internal/mq"
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
	fleet, stop, err := start(testOptions(t))
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	began := time.Now()
	conn, err := mq.Dial(fleet.Addr())
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
	if _, stop, err := start(o); err == nil {
		stop()
		t.Fatal("start succeeded with the storage port taken")
	} else if !strings.Contains(err.Error(), "storage gateway") {
		t.Fatalf("error %q does not name the storage gateway", err)
	}
	// The failed start released the data directory: a retry on a free port
	// comes up on the same one.
	o.storageListen = "127.0.0.1:0"
	_, stop, err := start(o)
	if err != nil {
		t.Fatalf("retry: %v", err)
	}
	stop()
}

// TestAdminEnablesFleetObs: -admin on its own gives /fleetz and the fleet
// /tracez a collector that lists every serving instance.
func TestAdminEnablesFleetObs(t *testing.T) {
	o := testOptions(t)
	o.admin = "127.0.0.1:0"
	fleet, stop, err := start(o)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	if fleet.Collector == nil {
		t.Fatal("-admin started no fleet collector")
	}
	fleet.Collector.Collect()
	live := 0
	for _, st := range fleet.Collector.Rollup().Instances {
		if st.Alive {
			live++
		}
	}
	if live < o.minInstances {
		t.Fatalf("collector lists %d live instances, want >= %d", live, o.minInstances)
	}
}

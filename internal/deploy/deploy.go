// Package deploy assembles the server side of a StackSync deployment — the
// message broker, the metadata and storage back-ends, the network listeners
// and the SyncService fleet — from one Config (DESIGN §19). The shipped
// server and every in-process harness start their fleet here, so "the
// deployment under test" and "the shipped binary" are the same wiring.
package deploy

import (
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"stacksync/internal/core"
	"stacksync/internal/faults"
	"stacksync/internal/metastore"
	"stacksync/internal/mq"
	"stacksync/internal/objstore"
	"stacksync/internal/obs"
	"stacksync/internal/omq"
)

// Fault sites Config.Faults injects at: metadata transactions and the
// SyncService's notification publishes.
const (
	FaultSiteMeta   = "meta"
	FaultSiteNotify = "mq.notif"
)

// startTimeout bounds how long Start waits for a supervised fleet to serve.
const startTimeout = 10 * time.Second

// Config selects each part of a deployment.
type Config struct {
	// DataDir holds the broker journal, the metadata WAL and the chunk
	// files. Empty keeps all three in memory.
	DataDir string
	// Listen is the broker's TCP address; empty serves in-process only.
	Listen string
	// StorageListen is the HTTP storage gateway's address; empty disables
	// the gateway. StorageToken guards it ("" disables auth).
	StorageListen string
	StorageToken  string

	// Workspaces are created at start; ones that already exist are kept.
	Workspaces []metastore.Workspace
	// Meta adds metadata store options (log retention, clock).
	Meta []metastore.Option

	// Supervisor, when set, runs the fleet the paper's way: a RemoteBroker
	// spawns SyncService instances and a Supervisor holds the pool at its
	// provisioner's target. OID is filled in. Nil pins Instances instead.
	Supervisor *omq.SupervisorConfig
	// Instances is the pinned fleet size (default 1): one ObjectMQ broker
	// per instance on the shared request queue.
	Instances int

	// Tracer, Registry and Events are shared by every server-side broker,
	// every SyncService instance and the metadata store; nil disables each.
	// A supervised instance's spans carry its instance id.
	Tracer   *obs.Tracer
	Registry *obs.Registry
	Events   *obs.EventLog

	// Faults, when set, injects at FaultSiteMeta and FaultSiteNotify.
	Faults *faults.Plan
}

// Fleet is a running deployment. Its exported back-ends are the ones the
// fleet serves from; in-process devices connect to MQ and Chunks directly.
type Fleet struct {
	MQ     *mq.Broker
	Meta   *metastore.Store
	Chunks objstore.Store

	cfg         Config
	mqServer    *mq.Server
	storageAddr string
	pinned      int
	rb          *omq.RemoteBroker
	sup         *omq.Supervisor
	hot         *obs.HotStats // fed by every supervised instance, read by Status

	closers   []func() error
	closeOnce sync.Once
	closeErr  error
}

// Start builds and starts a deployment. In supervised mode it returns once
// MinInstances serve, or fails past a deadline. On error everything already
// started is torn down.
func Start(cfg Config) (*Fleet, error) {
	f := &Fleet{cfg: cfg}
	if err := f.start(); err != nil {
		_ = f.Close()
		return nil, err
	}
	return f, nil
}

func (f *Fleet) start() error {
	if err := f.startBackends(); err != nil {
		return err
	}
	var err error
	if f.cfg.Listen != "" {
		if f.mqServer, err = mq.NewServer(f.MQ, f.cfg.Listen); err != nil {
			return err
		}
		f.closers = append(f.closers, f.mqServer.Close)
		if f.cfg.Registry != nil {
			f.mqServer.Register(f.cfg.Registry)
		}
	}
	if f.cfg.StorageListen != "" {
		// Bind before anything is announced, so a taken port fails Start.
		ln, err := net.Listen("tcp", f.cfg.StorageListen)
		if err != nil {
			return fmt.Errorf("deploy: storage gateway: %w", err)
		}
		gw := &http.Server{Handler: objstore.NewHandler(f.Chunks, f.cfg.StorageToken)}
		go func() { _ = gw.Serve(ln) }()
		f.storageAddr = ln.Addr().String()
		f.closers = append(f.closers, gw.Close)
	}

	notifMQ := mq.MQ(f.MQ)
	if f.cfg.Faults != nil {
		notifMQ = mq.NewFaulty(f.MQ, f.cfg.Faults, FaultSiteNotify, nil)
	}
	notif, err := f.broker(notifMQ, "notif-0")
	if err != nil {
		return err
	}
	if err := f.MQ.DeclareQueue(core.ServiceOID); err != nil {
		return err
	}
	if f.cfg.Supervisor == nil {
		return f.startPinned(notif)
	}
	return f.startSupervised(notif)
}

// startBackends opens the broker, the metadata store and the chunk store,
// in memory or recovered from DataDir, and creates the workspaces.
func (f *Fleet) startBackends() error {
	metaOpts := append([]metastore.Option{metastore.WithRegistry(f.cfg.Registry),
		metastore.WithFaults(f.cfg.Faults, FaultSiteMeta)}, f.cfg.Meta...)
	if dir := f.cfg.DataDir; dir == "" {
		f.MQ, f.Meta, f.Chunks = mq.NewBroker(), metastore.NewStore(metaOpts...), objstore.NewMemory()
		f.closers = append(f.closers, f.MQ.Close, f.Meta.Close)
	} else {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		var err error
		if f.MQ, err = mq.RecoverBroker(filepath.Join(dir, "broker.journal")); err != nil {
			return err
		}
		f.closers = append(f.closers, f.MQ.Close)
		if f.Meta, err = metastore.Recover(filepath.Join(dir, "metadata.wal"), metaOpts...); err != nil {
			return err
		}
		f.closers = append(f.closers, f.Meta.Close)
		disk, err := objstore.NewDisk(filepath.Join(dir, "chunks"))
		if err != nil {
			return err
		}
		f.closers = append(f.closers, disk.Close)
		if f.cfg.Registry != nil {
			disk.Register(f.cfg.Registry)
		}
		f.Chunks = disk
	}
	for _, ws := range f.cfg.Workspaces {
		if err := f.Meta.CreateWorkspace(ws); err != nil && !errors.Is(err, metastore.ErrWorkspaceExists) {
			return err
		}
	}
	return nil
}

// broker builds a server-side ObjectMQ broker carrying the shared
// observability; Close releases it.
func (f *Fleet) broker(m mq.MQ, id string) (*omq.Broker, error) {
	b, err := omq.NewBroker(m, omq.WithID(id), omq.WithTracer(f.cfg.Tracer),
		omq.WithRegistry(f.cfg.Registry), omq.WithEventLog(f.cfg.Events))
	if err != nil {
		return nil, err
	}
	f.closers = append(f.closers, b.Close)
	return b, nil
}

// startPinned binds Instances SyncServices, each on its own broker, all
// notifying through the shared notif broker.
func (f *Fleet) startPinned(notif *omq.Broker) error {
	for i := 0; i < max(f.cfg.Instances, 1); i++ {
		b, err := f.broker(f.MQ, fmt.Sprintf("svc-%d", i))
		if err != nil {
			return err
		}
		if _, err := b.Bind(core.ServiceOID, core.NewService(f.Meta, notif).API()); err != nil {
			return err
		}
		f.pinned++
	}
	return nil
}

// startSupervised registers the SyncService factory on a RemoteBroker,
// starts the Supervisor and waits until the fleet serves.
func (f *Fleet) startSupervised(notif *omq.Broker) error {
	node, err := f.broker(f.MQ, "node-0")
	if err != nil {
		return err
	}
	if f.rb, err = omq.NewRemoteBroker(node); err != nil {
		return err
	}
	f.closers = append(f.closers, f.rb.Close)
	f.hot = obs.NewHotStats(8)
	sc := *f.cfg.Supervisor
	sc.OID = core.ServiceOID
	f.rb.RegisterInstanceFactory(core.ServiceOID, func(id string) (interface{}, error) {
		// The service opens its metastore spans through the shared notif
		// broker; stamp them with the instance like its child broker's.
		svc := core.NewService(f.Meta, notif)
		svc.SetObs(f.cfg.Tracer.ForInstance(id), f.hot)
		return svc.API(), nil
	})
	supBroker, err := f.broker(f.MQ, "sup-0")
	if err != nil {
		return err
	}
	if f.sup, err = omq.StartSupervisor(supBroker, sc); err != nil {
		return err
	}
	f.closers = append(f.closers, func() error { f.sup.Stop(); return nil })
	// The Supervisor's first check runs one CheckEvery after start; poll for
	// its result rather than enforcing concurrently with its loop.
	n := max(sc.MinInstances, 1)
	return f.wait(startTimeout, n, func(live int) bool { return live >= n })
}

// Addr is the broker's TCP address ("" without Listen).
func (f *Fleet) Addr() string {
	if f.mqServer == nil {
		return ""
	}
	return f.mqServer.Addr()
}

// StorageAddr is the storage gateway's address ("" without StorageListen).
func (f *Fleet) StorageAddr() string { return f.storageAddr }

// Instances is the number of SyncService instances serving.
func (f *Fleet) Instances() int {
	if f.rb == nil {
		return f.pinned
	}
	return f.rb.InstanceCount(core.ServiceOID)
}

// Status is the /fleetz view of a supervised fleet: the serving instances'
// ids and the hot-workspace top-K of every commit they served. A pinned
// fleet reports neither.
func (f *Fleet) Status() obs.FleetStatus {
	if f.rb == nil {
		return obs.FleetStatus{}
	}
	return obs.FleetStatus{Instances: f.rb.InstanceIDs(core.ServiceOID), Hot: f.hot.Snapshot()}
}

// Kill crashes one supervised instance without draining it and returns its
// id ("" when none runs). The Supervisor respawns it on its next check.
func (f *Fleet) Kill() string {
	if f.rb == nil {
		return ""
	}
	return f.rb.KillLocal(core.ServiceOID)
}

// WaitInstances waits until exactly n instances serve.
func (f *Fleet) WaitInstances(n int, timeout time.Duration) error {
	return f.wait(timeout, n, func(live int) bool { return live == n })
}

// wait polls the fleet's size until ok accepts it or timeout passes.
func (f *Fleet) wait(timeout time.Duration, want int, ok func(live int) bool) error {
	deadline := time.Now().Add(timeout)
	for {
		live := f.Instances()
		if ok(live) {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("deploy: fleet at %d instances, want %d after %v", live, want, timeout)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// Queues reads every declared queue's stats for the admin surface.
func (f *Fleet) Queues() []obs.QueueInfo {
	names := f.MQ.Queues()
	out := make([]obs.QueueInfo, 0, len(names))
	for _, name := range names {
		s, err := f.MQ.QueueStats(name)
		if err != nil {
			continue
		}
		out = append(out, obs.QueueInfo{
			Name: s.Name, Depth: s.Depth, Unacked: s.Unacked,
			Consumers: s.Consumers, ArrivalRate: s.ArrivalRate,
			Enqueued: s.Enqueued, Acked: s.Acked, Redelivered: s.Redelivered,
		})
	}
	return out
}

// Close tears the deployment down in reverse start order. It is idempotent
// and returns the joined errors of the first call.
func (f *Fleet) Close() error {
	f.closeOnce.Do(func() {
		var errs []error
		for i := len(f.closers) - 1; i >= 0; i-- {
			errs = append(errs, f.closers[i]())
		}
		f.closeErr = errors.Join(errs...)
	})
	return f.closeErr
}

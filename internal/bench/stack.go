// Package bench contains the experiment harness that regenerates every
// table and figure of the paper's evaluation (§5). Traffic experiments run
// the REAL StackSync stack in-process with metered transports; provider
// comparisons use the models in bench/providers; auto-scaling experiments
// replay the synthetic UB1 trace through the real provisioning policies over
// a discrete-event G/G/η simulation.
package bench

import (
	"fmt"
	"time"

	"stacksync/internal/chunker"
	"stacksync/internal/client"
	"stacksync/internal/clock"
	"stacksync/internal/deploy"
	"stacksync/internal/metastore"
	"stacksync/internal/mq"
	"stacksync/internal/objstore"
	"stacksync/internal/obs"
	"stacksync/internal/omq"
)

// StackOptions configures an in-process deployment.
type StackOptions struct {
	// Devices is the number of client devices (>=1). Device 0 is the
	// writer in replay experiments.
	Devices int
	// Chunker used by all clients (default fixed 512 KB).
	Chunker chunker.Chunker
	// Compression used by all clients (default gzip).
	Compression chunker.Compression
	// StorageLatency and StorageBandwidth (bytes/sec) enable the simulated
	// Storage back-end latency model of the sync-time experiments; zero
	// disables it.
	StorageLatency   time.Duration
	StorageBandwidth float64
	// Workspace and user naming.
	WorkspaceID string
	// Tracer, when set, is shared by every broker and client in the stack so
	// a commit's trace crosses all hops. nil disables tracing (no overhead).
	Tracer *obs.Tracer
	// Registry, when set, is the shared metrics registry of the whole stack:
	// broker queue gauges, client series, metastore shard-contention
	// counters, and every device's MQ/storage traffic meters land on it. nil
	// gives each component a private registry (the pre-existing behaviour).
	Registry *obs.Registry
	// TransferWorkers and TransferBatch tune every client's transfer
	// pipeline (0 keeps the client defaults; 1 and 1 is serial, per-chunk).
	// Benchmarks sweep these to measure the pipelined data path against the
	// one-chunk-at-a-time baseline.
	TransferWorkers int
	TransferBatch   int
}

func (o *StackOptions) applyDefaults() {
	if o.Devices <= 0 {
		o.Devices = 1
	}
	if o.Chunker == nil {
		o.Chunker = chunker.NewFixed()
	}
	if o.Compression == 0 {
		o.Compression = chunker.Gzip
	}
	if o.WorkspaceID == "" {
		o.WorkspaceID = "bench-ws"
	}
}

// Stack is a complete in-process StackSync deployment with per-device
// traffic meters.
type Stack struct {
	Opts StackOptions
	// Fleet is the server side: broker, back-ends, one SyncService.
	Fleet *deploy.Fleet

	clients       []*client.Client
	clientBrokers []*omq.Broker
	clientMQs     []*mq.MeteredMQ
	clientStores  []*objstore.Metered
}

// NewStack deploys broker, metadata store, storage, a SyncService and the
// requested devices, all connected and started.
func NewStack(opts StackOptions) (*Stack, error) {
	opts.applyDefaults()
	fleet, err := deploy.Start(deploy.Config{
		Workspaces: []metastore.Workspace{{ID: opts.WorkspaceID, Owner: "user-0", Members: memberNames(opts.Devices)}},
		Tracer:     opts.Tracer,
		Registry:   opts.Registry,
	})
	if err != nil {
		return nil, err
	}
	st := &Stack{Opts: opts, Fleet: fleet}
	for i := 0; i < opts.Devices; i++ {
		device := fmt.Sprintf("dev-%d", i)
		mmq := mq.NewMeteredMQ(fleet.MQ)
		cb, err := omq.NewBroker(mmq, omq.WithID("client-"+device),
			omq.WithTracer(opts.Tracer), omq.WithRegistry(opts.Registry))
		if err != nil {
			st.Close()
			return nil, fmt.Errorf("bench: client broker: %w", err)
		}
		deviceStore := fleet.Chunks
		if opts.StorageLatency > 0 || opts.StorageBandwidth > 0 {
			deviceStore = objstore.NewSimulated(deviceStore, clock.NewReal(), opts.StorageLatency, opts.StorageBandwidth)
		}
		metered := objstore.NewMetered(deviceStore)
		if opts.Registry != nil {
			mmq.Register(opts.Registry, "link", device)
			metered.Register(opts.Registry, "device", device)
		}
		cl, err := client.NewClient(client.Config{
			UserID:      fmt.Sprintf("user-%d", i),
			DeviceID:    device,
			WorkspaceID: opts.WorkspaceID,
			Broker:      cb,
			Storage:     metered,
			Chunker:     opts.Chunker,
			Compression: opts.Compression,
			Tracer:      opts.Tracer,
			Registry:    opts.Registry,

			TransferWorkers: opts.TransferWorkers,
			TransferBatch:   opts.TransferBatch,
			// Traffic benches measure protocol overhead; proposal
			// retransmission is recovery machinery and would inflate the
			// metered control bytes on slow runs.
			RetransmitEvery: -1,
		})
		if err != nil {
			st.Close()
			return nil, err
		}
		if err := cl.Start(); err != nil {
			st.Close()
			return nil, fmt.Errorf("bench: start device %d: %w", i, err)
		}
		st.clients = append(st.clients, cl)
		st.clientBrokers = append(st.clientBrokers, cb)
		st.clientMQs = append(st.clientMQs, mmq)
		st.clientStores = append(st.clientStores, metered)
	}
	return st, nil
}

func memberNames(n int) []string {
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("user-%d", i)
	}
	return names
}

// Client returns device i.
func (st *Stack) Client(i int) *client.Client { return st.clients[i] }

// Devices returns the number of deployed devices.
func (st *Stack) Devices() int { return len(st.clients) }

// ControlTraffic returns the message-layer traffic of device i.
func (st *Stack) ControlTraffic(i int) mq.MQTraffic { return st.clientMQs[i].Traffic() }

// StorageTraffic returns the storage-layer traffic of device i.
func (st *Stack) StorageTraffic(i int) objstore.Traffic { return st.clientStores[i].Traffic() }

// ResetTraffic zeroes every device's meters.
func (st *Stack) ResetTraffic() {
	for _, m := range st.clientMQs {
		m.Reset()
	}
	for _, s := range st.clientStores {
		s.Reset()
	}
}

// Close tears the deployment down.
func (st *Stack) Close() {
	for _, c := range st.clients {
		_ = c.Close()
	}
	for _, b := range st.clientBrokers {
		_ = b.Close()
	}
	_ = st.Fleet.Close()
}

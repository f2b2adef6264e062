// Command stacksync-server runs the server side of a StackSync deployment:
// the message broker (TCP), the metadata back-end (with WAL durability), the
// storage back-end (on disk), one or more SyncService instances, and a
// Supervisor enforcing reactive auto-scaling of the service pool.
//
//	stacksync-server -listen 127.0.0.1:7070 -data /var/lib/stacksync \
//	    -workspace shared -users alice,bob
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"

	"stacksync/internal/core"
	"stacksync/internal/metastore"
	"stacksync/internal/mq"
	"stacksync/internal/objstore"
	"stacksync/internal/obs"
	"stacksync/internal/omq"
	"stacksync/internal/provision"
)

func main() {
	listen := flag.String("listen", "127.0.0.1:7070", "broker listen address")
	storageListen := flag.String("storage-listen", "127.0.0.1:7071", "storage gateway listen address (empty disables)")
	storageToken := flag.String("storage-token", "", "storage gateway auth token (empty disables auth)")
	dataDir := flag.String("data", "./stacksync-data", "data directory (WAL, journal, chunks)")
	workspace := flag.String("workspace", "shared", "workspace id to create if missing")
	users := flag.String("users", "alice", "comma-separated users with access to the workspace")
	minInstances := flag.Int("min-instances", 1, "minimum SyncService instances")
	maxInstances := flag.Int("max-instances", 8, "maximum SyncService instances")
	metaShards := flag.Int("meta-shards", 0, "metadata store shard count, rounded up to a power of two (0 = default)")
	admin := flag.String("admin", "", "admin/introspection listen address, e.g. 127.0.0.1:7072 (empty disables; enabling it also enables tracing)")
	affinity := flag.Bool("affinity", false, "enable workspace-affinity routing: instances fence routed commits by consistent-hash ownership and the supervisor rebalances the ring on scale events")
	flag.Parse()

	if err := run(*listen, *storageListen, *storageToken, *dataDir, *workspace, *users, *minInstances, *maxInstances, *metaShards, *admin, *affinity); err != nil {
		log.Fatal(err)
	}
}

func run(listen, storageListen, storageToken, dataDir, workspace, users string, minInstances, maxInstances, metaShards int, admin string, affinity bool) error {
	if err := os.MkdirAll(dataDir, 0o755); err != nil {
		return err
	}

	// Message broker with persistent-message journalling, served over TCP.
	broker, err := mq.RecoverBroker(filepath.Join(dataDir, "broker.journal"))
	if err != nil {
		return err
	}
	defer broker.Close()
	server, err := mq.NewServer(broker, listen)
	if err != nil {
		return err
	}
	defer server.Close()
	log.Printf("broker listening on %s", server.Addr())

	// Observability: with -admin set, every broker shares one registry, one
	// tracer and one flight recorder so /metrics, /tracez and /eventz see the
	// whole node, and a scraper samples the registry into time series for
	// /varz.
	var (
		tracer   *obs.Tracer
		registry *obs.Registry
		events   *obs.EventLog
		scraper  *obs.Scraper
		obsOpts  []omq.BrokerOption
	)
	if admin != "" {
		tracer = obs.NewTracer()
		registry = obs.NewRegistry()
		events = obs.NewEventLog(obs.DefaultEventLogCapacity)
		scraper = obs.StartScraper(registry, obs.ScraperConfig{})
		defer scraper.Stop()
		obsOpts = []omq.BrokerOption{omq.WithTracer(tracer), omq.WithRegistry(registry), omq.WithEventLog(events)}
	}

	// Metadata back-end with WAL recovery, sharded by workspace.
	var metaOpts []metastore.Option
	if metaShards > 0 {
		metaOpts = append(metaOpts, metastore.WithShards(metaShards))
	}
	if registry != nil {
		metaOpts = append(metaOpts, metastore.WithRegistry(registry))
	}
	meta, err := metastore.Recover(filepath.Join(dataDir, "metadata.wal"), metaOpts...)
	if err != nil {
		return err
	}
	defer meta.Close()
	members := strings.Split(users, ",")
	err = meta.CreateWorkspace(metastore.Workspace{ID: workspace, Owner: members[0], Members: members})
	if err != nil && !errors.Is(err, metastore.ErrWorkspaceExists) {
		return err
	}

	// Storage back-end on disk, fronted by the HTTP gateway so clients on
	// other machines reach it — the decoupled data flow of the paper.
	chunks, err := objstore.NewDisk(filepath.Join(dataDir, "chunks"))
	if err != nil {
		return err
	}
	if storageListen != "" {
		gw := &http.Server{Addr: storageListen, Handler: objstore.NewHandler(chunks, storageToken)}
		go func() {
			if err := gw.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				log.Printf("storage gateway: %v", err)
			}
		}()
		defer gw.Close()
		log.Printf("storage gateway listening on %s", storageListen)
	}

	// SyncService pool managed by a Supervisor with a reactive policy.
	nodeBroker, err := omq.NewBroker(broker, append([]omq.BrokerOption{omq.WithID("node-0")}, obsOpts...)...)
	if err != nil {
		return err
	}
	defer nodeBroker.Close()
	rb, err := omq.NewRemoteBroker(nodeBroker)
	if err != nil {
		return err
	}
	defer rb.Close()
	notifBroker, err := omq.NewBroker(broker, append([]omq.BrokerOption{omq.WithID("notif-0")}, obsOpts...)...)
	if err != nil {
		return err
	}
	defer notifBroker.Close()
	// Fleet federation: with admin + affinity enabled, every spawned instance
	// gets its own span sink, registry, event log and hot-workspace sketch,
	// and a Collector scrapes them all so /fleetz and the fleet /tracez can
	// answer cross-instance questions. The shared node registry above keeps
	// covering node-wide components (broker, metastore); the per-instance
	// exports are what the collector stamps with instance id + ring epoch.
	var collector *obs.Collector
	type instanceObs struct {
		reg    *obs.Registry
		sink   *obs.SpanSink
		events *obs.EventLog
		tracer *obs.Tracer
		hot    *obs.HotStats
	}
	bundles := make(map[string]*instanceObs)
	var bundleMu sync.Mutex
	if admin != "" && affinity {
		collector = obs.NewCollector()
		rb.SetSpawnHooks(omq.SpawnHooks{
			Options: func(oid, instanceID string) []omq.BrokerOption {
				b := &instanceObs{
					reg:    obs.NewRegistry(),
					sink:   obs.NewSpanSink(0),
					events: obs.NewEventLog(obs.DefaultEventLogCapacity),
					hot:    obs.NewHotStats(8),
				}
				b.tracer = obs.NewTracer(obs.WithSink(b.sink), obs.WithInstance(instanceID))
				bundleMu.Lock()
				bundles[instanceID] = b
				bundleMu.Unlock()
				return []omq.BrokerOption{
					omq.WithTracer(b.tracer),
					omq.WithRegistry(b.reg),
					omq.WithEventLog(b.events),
				}
			},
			Stopped: func(oid, instanceID string, clean bool) {
				collector.MarkDead(instanceID, clean)
			},
		})
		stopPolling := collector.StartPolling(time.Second)
		defer stopPolling()
	}

	if affinity {
		// Affinity deployments give every instance its ring identity at spawn
		// time, so it fences routed calls stamped under a stale ring; the
		// supervisor (Routing below) pushes ring updates on every scale event.
		rb.RegisterInstanceFactory(core.ServiceOID, func(id string) (interface{}, error) {
			svc := core.NewService(meta, notifBroker)
			svc.SetInstance(id)
			if collector != nil {
				bundleMu.Lock()
				b := bundles[id]
				bundleMu.Unlock()
				if b != nil {
					svc.SetObs(b.tracer, b.hot)
					collector.Register(obs.Source{
						InstanceID: id,
						Epoch:      svc.RingEpoch,
						Ready:      svc.Ready,
						Registry:   b.reg,
						Sink:       b.sink,
						Events:     b.events,
						Hot:        b.hot,
					})
				}
			}
			return svc.API(), nil
		})
	} else {
		rb.RegisterFactory(core.ServiceOID, func() (interface{}, error) {
			return core.NewService(meta, notifBroker).API(), nil
		})
	}
	if err := broker.DeclareQueue(core.ServiceOID); err != nil {
		return err
	}

	supBroker, err := omq.NewBroker(broker, append([]omq.BrokerOption{omq.WithID("sup-0")}, obsOpts...)...)
	if err != nil {
		return err
	}
	defer supBroker.Close()
	reactive := provision.NewReactive(provision.DefaultSLA(), 0, 0, nil)
	if events != nil {
		reactive.SetEventLog(events)
	}
	sup, err := omq.StartSupervisor(supBroker, omq.SupervisorConfig{
		OID:          core.ServiceOID,
		CheckEvery:   time.Second,
		MinInstances: minInstances,
		MaxInstances: maxInstances,
		Provisioner:  reactive,
		Routing:      affinity,
	})
	if err != nil {
		return err
	}
	defer sup.Stop()

	if admin != "" {
		adminSrv, err := (&obs.Admin{
			Registry: registry,
			Tracer:   tracer,
			Scraper:  scraper,
			Events:   events,
			Elastic: func() obs.ElasticStatus {
				var st obs.ElasticStatus
				if s, err := broker.QueueStats(core.ServiceOID); err == nil {
					instances := rb.InstanceCount(core.ServiceOID)
					eta := instances
					if eta < 1 {
						eta = 1
					}
					svc := provision.DefaultSLA().S.Seconds()
					st.Queues = append(st.Queues, obs.QueueLoad{
						Queue:       core.ServiceOID,
						Lambda:      s.ArrivalRate,
						ServiceTime: svc,
						Instances:   instances,
						Rho:         s.ArrivalRate * svc / float64(eta),
					})
				}
				return st
			},
			Health: func() obs.Health {
				instances := rb.InstanceCount(core.ServiceOID)
				h := obs.Health{OK: instances >= minInstances, Components: []obs.ComponentHealth{
					{Name: "mq", OK: true, Detail: server.Addr()},
					{Name: "syncservice", OK: instances >= minInstances,
						Detail: fmt.Sprintf("%d/%d instances", instances, minInstances)},
				}}
				return h
			},
			Ready: func() obs.Health {
				// Liveness counts processes; readiness counts instances that
				// hold a ring slot. A fenced or draining instance is alive but
				// not ready, so it drops out here before /healthz notices.
				instances := rb.InstanceCount(core.ServiceOID)
				ready := instances
				if collector != nil {
					collector.Collect()
					ready = 0
					for _, st := range collector.Rollup().Instances {
						if st.Alive && st.Ready {
							ready++
						}
					}
				}
				return obs.Health{OK: ready >= minInstances, Components: []obs.ComponentHealth{
					{Name: "syncservice", OK: ready >= minInstances,
						Detail: fmt.Sprintf("%d/%d ready (of %d alive)", ready, minInstances, instances)},
				}}
			},
			Collector: collector,
			Queues: func() []obs.QueueInfo {
				names := broker.Queues()
				out := make([]obs.QueueInfo, 0, len(names))
				for _, name := range names {
					s, err := broker.QueueStats(name)
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
			},
		}).Serve(admin)
		if err != nil {
			return err
		}
		defer adminSrv.Close()
		log.Printf("admin endpoint on http://%s (/metrics /healthz /readyz /tracez /fleetz /queuesz /varz /eventz /elasticz /debug/pprof)", adminSrv.Addr())
	}

	fmt.Printf("stacksync-server up: workspace=%q users=%v service pool %d..%d affinity=%v\n",
		workspace, members, minInstances, maxInstances, affinity)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	log.Println("shutting down")
	return nil
}

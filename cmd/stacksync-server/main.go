// Command stacksync-server runs the server side of a StackSync deployment:
// the message broker (TCP), the metadata back-end (with WAL durability), the
// storage back-end (on disk), one or more SyncService instances, and a
// Supervisor enforcing reactive auto-scaling of the service pool.
//
//	stacksync-server -listen 127.0.0.1:7070 -data /var/lib/stacksync \
//	    -workspace shared -users alice,bob
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"stacksync/internal/deploy"
	"stacksync/internal/metastore"
	"stacksync/internal/obs"
	"stacksync/internal/omq"
	"stacksync/internal/provision"
)

// options are the server's flags.
type options struct {
	listen, storageListen, storageToken, dataDir string
	workspace, users                             string
	minInstances, maxInstances, metaShards       int
	admin                                        string
}

func main() {
	var o options
	flag.StringVar(&o.listen, "listen", "127.0.0.1:7070", "broker listen address")
	flag.StringVar(&o.storageListen, "storage-listen", "127.0.0.1:7071", "storage gateway listen address (empty disables)")
	flag.StringVar(&o.storageToken, "storage-token", "", "storage gateway auth token (empty disables auth)")
	flag.StringVar(&o.dataDir, "data", "./stacksync-data", "data directory (WAL, journal, chunks)")
	flag.StringVar(&o.workspace, "workspace", "shared", "workspace id to create if missing")
	flag.StringVar(&o.users, "users", "alice", "comma-separated users with access to the workspace")
	flag.IntVar(&o.minInstances, "min-instances", 1, "minimum SyncService instances")
	flag.IntVar(&o.maxInstances, "max-instances", 8, "maximum SyncService instances")
	flag.IntVar(&o.metaShards, "meta-shards", 0, "metadata store shard count, rounded up to a power of two (0 = default)")
	flag.StringVar(&o.admin, "admin", "", "admin/introspection listen address, e.g. 127.0.0.1:7072 (empty disables; enabling it also enables tracing)")
	flag.Parse()

	_, stop, err := start(o)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("stacksync-server up: workspace=%q users=%v service pool %d..%d\n",
		o.workspace, strings.Split(o.users, ","), o.minInstances, o.maxInstances)
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	log.Println("shutting down")
	stop()
}

// start brings the deployment up and returns once it serves; stop tears it
// down.
func start(o options) (*deploy.Fleet, func(), error) {
	members := strings.Split(o.users, ",")
	reactive := provision.NewReactive(provision.DefaultSLA(), 0, 0, nil)
	cfg := deploy.Config{
		DataDir:       o.dataDir,
		Listen:        o.listen,
		StorageListen: o.storageListen,
		StorageToken:  o.storageToken,
		Workspaces:    []metastore.Workspace{{ID: o.workspace, Owner: members[0], Members: members}},
		Supervisor: &omq.SupervisorConfig{
			MinInstances: o.minInstances,
			MaxInstances: o.maxInstances,
			Provisioner:  reactive,
		},
	}
	if o.metaShards > 0 {
		cfg.Meta = []metastore.Option{metastore.WithShards(o.metaShards)}
	}
	// Observability: with -admin set, every broker shares one registry, one
	// tracer and one flight recorder so /metrics, /tracez and /eventz see the
	// whole node, and every instance exports its own bundle to a fleet
	// Collector for /fleetz and the fleet /tracez.
	if o.admin != "" {
		cfg.Tracer, cfg.Registry = obs.NewTracer(), obs.NewRegistry()
		cfg.Events = obs.NewEventLog(obs.DefaultEventLogCapacity)
		cfg.FleetObs, cfg.CollectEvery = true, time.Second
		reactive.SetEventLog(cfg.Events)
	}
	fleet, err := deploy.Start(cfg)
	if err != nil {
		return nil, nil, err
	}
	log.Printf("broker listening on %s", fleet.Addr())
	if a := fleet.StorageAddr(); a != "" {
		log.Printf("storage gateway listening on %s", a)
	}
	if o.admin == "" {
		return fleet, func() { _ = fleet.Close() }, nil
	}
	adminSrv, err := adminFor(fleet, cfg, o.minInstances).Serve(o.admin)
	if err != nil {
		_ = fleet.Close()
		return nil, nil, err
	}
	log.Printf("admin endpoint on http://%s", adminSrv.Addr())
	return fleet, func() {
		_ = adminSrv.Close()
		_ = fleet.Close()
	}, nil
}

// adminFor builds the admin surface over a running fleet.
func adminFor(fleet *deploy.Fleet, cfg deploy.Config, minInstances int) *obs.Admin {
	return &obs.Admin{
		Registry: cfg.Registry,
		Tracer:   cfg.Tracer,
		Events:   cfg.Events,
		Health: func() obs.Health {
			instances := fleet.Instances()
			return obs.Health{OK: instances >= minInstances, Components: []obs.ComponentHealth{
				{Name: "mq", OK: true, Detail: fleet.Addr()},
				{Name: "syncservice", OK: instances >= minInstances,
					Detail: fmt.Sprintf("%d/%d instances", instances, minInstances)},
			}}
		},
		Collector: fleet.Collector,
		Queues:    fleet.Queues,
	}
}

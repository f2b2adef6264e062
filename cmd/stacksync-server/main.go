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
	minInstances, maxInstances                   int
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
	flag.StringVar(&o.admin, "admin", "", "admin/introspection listen address, e.g. 127.0.0.1:7072 (empty disables; enabling it also enables tracing)")
	flag.Parse()

	srv, err := start(o)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("stacksync-server up: workspace=%q users=%v service pool %d..%d\n",
		o.workspace, strings.Split(o.users, ","), o.minInstances, o.maxInstances)
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	log.Println("shutting down")
	srv.stop()
}

// server is a running deployment and its admin endpoint.
type server struct {
	fleet *deploy.Fleet
	admin *obs.AdminServer // nil without -admin
}

// stop tears the server down.
func (s *server) stop() {
	if s.admin != nil {
		_ = s.admin.Close()
	}
	_ = s.fleet.Close()
}

// start brings the deployment up and returns once it serves.
func start(o options) (*server, error) {
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
	// Observability: with -admin set, every broker and every SyncService
	// instance shares one registry, one tracer and one flight recorder, so
	// /metrics, /tracez and /eventz see the whole node.
	if o.admin != "" {
		cfg.Tracer, cfg.Registry = obs.NewTracer(), obs.NewRegistry()
		cfg.Events = obs.NewEventLog(obs.DefaultEventLogCapacity)
		reactive.SetEventLog(cfg.Events)
	}
	fleet, err := deploy.Start(cfg)
	if err != nil {
		return nil, err
	}
	log.Printf("broker listening on %s", fleet.Addr())
	if a := fleet.StorageAddr(); a != "" {
		log.Printf("storage gateway listening on %s", a)
	}
	srv := &server{fleet: fleet}
	if o.admin == "" {
		return srv, nil
	}
	if srv.admin, err = adminFor(fleet, cfg, o.minInstances).Serve(o.admin); err != nil {
		_ = fleet.Close()
		return nil, err
	}
	log.Printf("admin endpoint on http://%s", srv.admin.Addr())
	return srv, nil
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
		Fleet:  fleet.Status,
		Queues: fleet.Queues,
	}
}

package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"

	"stacksync/internal/core"
	"stacksync/internal/metastore"
	"stacksync/internal/mq"
	"stacksync/internal/objstore"
	"stacksync/internal/omq"
)

// serviceInstances is how many SyncService instances the child binds to the
// shared request queue: cmd/stacksync-server with -min-instances 2
// -max-instances 2, minus the Supervisor that would hold it there.
const serviceInstances = 2

// benchUser owns every benchmark workspace; devices differ by device id.
const benchUser = "bench"

func workspaceID(i int) string { return fmt.Sprintf("w%02d", i) }

// runServerChild is the server side of the deployment, assembled from the
// same constructors and defaults as cmd/stacksync-server: a journaled broker
// on TCP, the metadata store recovered from its fsync'd WAL, a disk chunk
// store behind the HTTP gateway, and SyncService instances on the shared
// request queue. It differs in creating several workspaces and in pinning
// the instance count. With traced set, the benchmark's wrappers sit on the
// in-process broker the SyncService brokers use and on the Disk store.
//
// It prints one "ready" line on stdout, then serves commands from stdin
// ("dump <path>" writes the recorded spans) and exits when stdin closes, so
// it can never outlive the parent.
func runServerChild(dataDir string, workspaces int, traced bool) error {
	if err := os.MkdirAll(dataDir, 0o755); err != nil {
		return err
	}
	broker, err := mq.RecoverBroker(filepath.Join(dataDir, "broker.journal"))
	if err != nil {
		return err
	}
	defer broker.Close()
	server, err := mq.NewServer(broker, "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer server.Close()

	recoverStart := time.Now()
	meta, err := metastore.Recover(filepath.Join(dataDir, "metadata.wal"))
	if err != nil {
		return err
	}
	defer meta.Close()
	recoverTook := time.Since(recoverStart)
	for i := 0; i < workspaces; i++ {
		err := meta.CreateWorkspace(metastore.Workspace{ID: workspaceID(i), Owner: benchUser, Members: []string{benchUser}})
		if err != nil && !errors.Is(err, metastore.ErrWorkspaceExists) {
			return err
		}
	}

	var rec *recorder
	if traced {
		rec = &recorder{}
	}
	disk, err := objstore.NewDisk(filepath.Join(dataDir, "chunks"))
	if err != nil {
		return err
	}
	var chunks objstore.Store = disk
	if traced {
		chunks = tracedStore{Store: disk, rec: rec, dev: -1, prefix: "disk."}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	gw := &http.Server{Handler: objstore.NewHandler(chunks, "")}
	go func() { _ = gw.Serve(ln) }()
	defer gw.Close()

	var serviceMQ mq.MQ = broker
	if traced {
		serviceMQ = &tapMQ{MQ: broker, rec: rec, dev: -1, idPrefix: fmt.Sprintf("n%d.", os.Getpid())}
	}
	notifBroker, err := omq.NewBroker(serviceMQ, omq.WithID("notif-0"))
	if err != nil {
		return err
	}
	defer notifBroker.Close()
	if err := broker.DeclareQueue(core.ServiceOID); err != nil {
		return err
	}
	for i := 0; i < serviceInstances; i++ {
		b, err := omq.NewBroker(serviceMQ, omq.WithID(fmt.Sprintf("svc-%d", i)))
		if err != nil {
			return err
		}
		defer b.Close()
		if _, err := b.Bind(core.ServiceOID, core.NewService(meta, notifBroker).API()); err != nil {
			return err
		}
	}

	fmt.Printf("ready mq=%s http=http://%s recover_ns=%d\n", server.Addr(), ln.Addr(), recoverTook.Nanoseconds())

	in := bufio.NewScanner(os.Stdin)
	for in.Scan() {
		cmd, arg, _ := strings.Cut(in.Text(), " ")
		switch cmd {
		case "dump":
			if err := writeSpans(arg, rec.take()); err != nil {
				fmt.Printf("error %v\n", err)
				continue
			}
			fmt.Println("ok")
		default:
			fmt.Printf("error unknown command %q\n", cmd)
		}
	}
	return nil
}

func writeSpans(path string, spans []span) error {
	data, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

func readSpans(path string) ([]span, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spans []span
	if err := json.Unmarshal(data, &spans); err != nil {
		return nil, fmt.Errorf("spans file %s: %w", path, err)
	}
	return spans, nil
}

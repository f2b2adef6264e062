// Command stacksync-client runs a StackSync desktop client: it connects to
// the broker of a stacksync-server, binds to a workspace and keeps a local
// directory in sync with it.
//
//	stacksync-client -broker 127.0.0.1:7070 -storage-url http://127.0.0.1:7071 \
//	    -user alice -device alice-laptop -workspace shared -dir ~/Sync
//
// Chunks go to the server's storage gateway (-storage-url). The server's
// chunk store is one log that only the server writes, so a client never
// opens it directly.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"stacksync/internal/client"
	"stacksync/internal/metastore"
	"stacksync/internal/mq"
	"stacksync/internal/objstore"
	"stacksync/internal/omq"
)

func main() {
	brokerAddr := flag.String("broker", "127.0.0.1:7070", "broker address of the stacksync-server")
	storageURL := flag.String("storage-url", "http://127.0.0.1:7071", "storage gateway URL")
	storageToken := flag.String("storage-token", "", "storage gateway auth token")
	user := flag.String("user", "alice", "user id")
	device := flag.String("device", "", "device id (default <user>-<hostname>)")
	workspace := flag.String("workspace", "shared", "workspace id")
	dir := flag.String("dir", "./Sync", "local directory to synchronize")
	interval := flag.Duration("scan-interval", 500*time.Millisecond, "local change scan interval")
	flag.Parse()

	if err := run(*brokerAddr, *storageURL, *storageToken, *user, *device, *workspace, *dir, *interval); err != nil {
		log.Fatal(err)
	}
}

func run(brokerAddr, storageURL, storageToken, user, device, workspace, dir string, interval time.Duration) error {
	if device == "" {
		host, err := os.Hostname()
		if err != nil {
			host = "host"
		}
		device = user + "-" + host
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}

	conn, err := mq.Dial(brokerAddr)
	if err != nil {
		return fmt.Errorf("connect broker: %w", err)
	}
	defer conn.Close()
	broker, err := omq.NewBroker(conn)
	if err != nil {
		return err
	}
	defer broker.Close()

	c, err := client.NewClient(client.Config{
		UserID: user, DeviceID: device, WorkspaceID: workspace,
		Broker: broker, Storage: objstore.NewHTTPStore(storageURL, storageToken),
	})
	if err != nil {
		return err
	}
	if err := c.Start(); err != nil {
		return fmt.Errorf("start client (is the server running?): %w", err)
	}
	defer c.Close()

	watcher, err := client.NewDirWatcher(c, dir, interval)
	if err != nil {
		return err
	}
	watcher.Start()
	defer watcher.Stop()

	log.Printf("syncing %s as %s/%s in workspace %q", dir, user, device, workspace)
	go func() {
		for e := range c.Events() {
			switch e.Type {
			case client.LocalCommitted:
				log.Printf("committed %s (%s v%d)", e.Path, statusName(e.Status), e.Version)
			case client.RemoteApplied:
				log.Printf("received  %s (%s v%d)", e.Path, statusName(e.Status), e.Version)
			case client.ConflictResolved:
				log.Printf("conflict  preserved as %s", e.Path)
			}
		}
	}()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	log.Println("stopping")
	return nil
}

func statusName(s metastore.Status) string { return s.String() }

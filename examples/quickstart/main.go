// Quickstart: a complete in-process StackSync deployment — message broker,
// metadata back-end, storage back-end, SyncService and two client devices —
// synchronizing a file from one device to the other.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"time"

	"stacksync/internal/client"
	"stacksync/internal/deploy"
	"stacksync/internal/metastore"
	"stacksync/internal/omq"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// 1. The server side in one call: the messaging substrate (the paper's
	// RabbitMQ role), the metadata back-end (PostgreSQL role) with one shared
	// workspace, the storage back-end (OpenStack Swift role) and a
	// SyncService bound to the shared request queue via ObjectMQ.
	fleet, err := deploy.Start(deploy.Config{
		Workspaces: []metastore.Workspace{{ID: "family-photos", Owner: "alice", Members: []string{"bob"}}},
	})
	if err != nil {
		return err
	}
	defer fleet.Close()

	// 2. Two devices.
	newDevice := func(user, device string) (*client.Client, error) {
		b, err := omq.NewBroker(fleet.MQ)
		if err != nil {
			return nil, err
		}
		c, err := client.NewClient(client.Config{
			UserID: user, DeviceID: device, WorkspaceID: "family-photos",
			Broker: b, Storage: fleet.Chunks,
		})
		if err != nil {
			return nil, err
		}
		return c, c.Start()
	}
	alice, err := newDevice("alice", "alice-laptop")
	if err != nil {
		return err
	}
	defer alice.Close()
	bob, err := newDevice("bob", "bob-desktop")
	if err != nil {
		return err
	}
	defer bob.Close()

	// 3. Alice adds a file; Bob receives it as a push notification.
	fmt.Println("alice: adding holiday.txt")
	if err := alice.PutFile("holiday.txt", []byte("Beach, 2014-12-08, Bordeaux")); err != nil {
		return err
	}
	if err := bob.WaitForVersion("holiday.txt", 1, 5*time.Second); err != nil {
		return err
	}
	content, _ := bob.FileContent("holiday.txt")
	fmt.Printf("bob:   received holiday.txt v1: %q\n", content)

	// 4. Bob edits it; Alice sees version 2.
	fmt.Println("bob:   editing holiday.txt")
	if err := bob.PutFile("holiday.txt", []byte("Beach, 2014-12-08, Bordeaux. Great wine!")); err != nil {
		return err
	}
	if err := alice.WaitForVersion("holiday.txt", 2, 5*time.Second); err != nil {
		return err
	}
	content, _ = alice.FileContent("holiday.txt")
	fmt.Printf("alice: received holiday.txt v2: %q\n", content)

	ws, err := alice.Workspaces()
	if err != nil {
		return err
	}
	fmt.Printf("alice's workspaces: %d (%s, owner %s)\n", len(ws), ws[0].ID, ws[0].Owner)
	return nil
}

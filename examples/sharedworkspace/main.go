// Shared workspace: three devices collaborate on one workspace; two of them
// edit the same file concurrently and the losing edit is preserved as a
// conflict copy — the Dropbox-style policy of §4.1/§4.2.1.
//
//	go run ./examples/sharedworkspace
package main

import (
	"fmt"
	"log"
	"strings"
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
	fleet, err := deploy.Start(deploy.Config{
		Workspaces: []metastore.Workspace{{ID: "design-docs", Owner: "alice", Members: []string{"bob", "carol"}}},
	})
	if err != nil {
		return err
	}
	defer fleet.Close()

	devices := map[string]*client.Client{}
	for _, spec := range []struct{ user, device string }{
		{"alice", "alice-laptop"}, {"bob", "bob-laptop"}, {"carol", "carol-tablet"},
	} {
		b, err := omq.NewBroker(fleet.MQ)
		if err != nil {
			return err
		}
		defer b.Close()
		c, err := client.NewClient(client.Config{
			UserID: spec.user, DeviceID: spec.device, WorkspaceID: "design-docs",
			Broker: b, Storage: fleet.Chunks,
		})
		if err != nil {
			return err
		}
		if err := c.Start(); err != nil {
			return err
		}
		defer c.Close()
		devices[spec.device] = c
	}
	alice := devices["alice-laptop"]
	bob := devices["bob-laptop"]
	carol := devices["carol-tablet"]

	// A baseline version everyone shares.
	fmt.Println("alice creates spec.md v1")
	if err := alice.PutFile("spec.md", []byte("# Spec\nDraft v1")); err != nil {
		return err
	}
	for name, dev := range devices {
		if err := dev.WaitForVersion("spec.md", 1, 5*time.Second); err != nil {
			return fmt.Errorf("%s never synced: %w", name, err)
		}
	}

	// Concurrent edits: alice and bob both propose version 2.
	fmt.Println("alice and bob edit spec.md concurrently...")
	if err := alice.PutFile("spec.md", []byte("# Spec\nAlice's edit")); err != nil {
		return err
	}
	if err := bob.PutFile("spec.md", []byte("# Spec\nBob's edit")); err != nil {
		return err
	}

	// Everyone converges on the winner at v2, and the loser's edit survives
	// as a conflict copy on every device.
	for name, dev := range devices {
		if err := dev.WaitForVersion("spec.md", 2, 5*time.Second); err != nil {
			return fmt.Errorf("%s never saw v2: %w", name, err)
		}
	}
	var copyPath string
	deadline := time.Now().Add(5 * time.Second)
	for copyPath == "" && time.Now().Before(deadline) {
		for _, p := range carol.Paths() {
			if strings.Contains(p, "conflicted copy") {
				copyPath = p
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	if copyPath == "" {
		return fmt.Errorf("no conflict copy appeared")
	}

	winner, _ := carol.FileContent("spec.md")
	loser, _ := carol.FileContent(copyPath)
	fmt.Printf("winner  (spec.md): %q\n", lastLine(winner))
	fmt.Printf("conflict copy (%s): %q\n", copyPath, lastLine(loser))
	fmt.Println("all three devices hold both versions — nothing was lost.")
	return nil
}

func lastLine(b []byte) string {
	lines := strings.Split(strings.TrimSpace(string(b)), "\n")
	return lines[len(lines)-1]
}

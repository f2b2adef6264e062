// Shared workspace: three devices collaborate on one workspace; two of them
// edit the same file concurrently and the losing edit is preserved as a
// conflict copy — the Dropbox-style policy of §4.1/§4.2.1.
//
//	go run ./examples/sharedworkspace
package main

import (
	"context"
	"fmt"
	"log"
	"strings"
	"sync"
	"time"

	"stacksync/internal/client"
	"stacksync/internal/deploy"
	"stacksync/internal/metastore"
	"stacksync/internal/objstore"
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

	chunks := &lockstep{Store: fleet.Chunks}
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
			Broker: b, Storage: chunks,
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

	// Concurrent edits: alice and bob both propose the next version, and
	// the losing edit survives as a conflict copy on every device.
	fmt.Println("alice and bob edit spec.md concurrently...")
	copyPath, err := editUntilConflict(chunks, alice, bob, carol)
	if err != nil {
		return err
	}
	for name, dev := range devices {
		if err := dev.WaitForVersion(copyPath, 1, 5*time.Second); err != nil {
			return fmt.Errorf("%s never saw the conflict copy: %w", name, err)
		}
	}

	winner, _ := carol.FileContent("spec.md")
	loser, _ := carol.FileContent(copyPath)
	fmt.Printf("winner  (spec.md): %q\n", lastLine(winner))
	fmt.Printf("conflict copy (%s): %q\n", copyPath, lastLine(loser))
	fmt.Println("all three devices hold both versions — nothing was lost.")
	return nil
}

// lockstep is the example's chunk store. Once armed for n uploads it holds
// each PutMulti until all n have arrived, then lets them through together
// and disarms, so concurrent editors finish uploading at one instant.
type lockstep struct {
	objstore.Store
	mu      sync.Mutex
	waiting int // uploads still to arrive; 0 when disarmed
	release chan struct{}
}

func (l *lockstep) arm(n int) {
	l.mu.Lock()
	l.waiting, l.release = n, make(chan struct{})
	l.mu.Unlock()
}

func (l *lockstep) PutMulti(ctx context.Context, container string, objects []objstore.Object) error {
	l.mu.Lock()
	release := l.release
	if l.waiting--; l.waiting == 0 {
		close(release)
	} else if l.waiting < 0 {
		l.waiting, release = 0, nil
	}
	l.mu.Unlock()
	if release != nil {
		select {
		case <-release:
		case <-time.After(time.Second): // an editor that uploads nothing
		}
	}
	return l.Store.PutMulti(ctx, container, objects)
}

// editUntilConflict has alice and bob edit spec.md at one instant. Both
// upload in lockstep and read their local version only afterwards, so both
// propose against the version they share: one commit wins and the other
// comes back as a conflict. Should one device still apply the other's commit
// first, its edit simply follows and no conflict exists; the pair is then
// retried at the next version. It returns the conflict copy's path as carol
// sees it.
func editUntilConflict(chunks *lockstep, alice, bob, carol *client.Client) (string, error) {
	for attempt := 1; attempt <= 5; attempt++ {
		v, _ := carol.Version("spec.md")
		chunks.arm(2)
		start := make(chan struct{})
		errs := make(chan error, 2)
		for _, e := range []struct {
			dev  *client.Client
			text string
		}{{alice, "Alice's edit"}, {bob, "Bob's edit"}} {
			go func() {
				<-start
				errs <- e.dev.PutFile("spec.md", []byte(fmt.Sprintf("# Spec\n%s (try %d)", e.text, attempt)))
			}()
		}
		close(start)
		for range 2 {
			if err := <-errs; err != nil {
				return "", err
			}
		}
		deadline := time.Now().Add(5 * time.Second)
		for time.Now().Before(deadline) {
			for _, p := range carol.Paths() {
				if strings.Contains(p, "conflicted copy") {
					return p, nil
				}
			}
			if now, _ := carol.Version("spec.md"); now > v+1 {
				break // one edit followed the other: no race this time
			}
			time.Sleep(5 * time.Millisecond)
		}
		fmt.Printf("one edit followed the other (no conflict); again from v%d\n", v+2)
		for _, dev := range []*client.Client{alice, bob} {
			if err := dev.WaitForVersion("spec.md", v+2, 5*time.Second); err != nil {
				return "", err
			}
		}
	}
	return "", fmt.Errorf("no conflict copy appeared")
}

func lastLine(b []byte) string {
	lines := strings.Split(strings.TrimSpace(string(b)), "\n")
	return lines[len(lines)-1]
}

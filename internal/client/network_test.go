package client

import (
	"bytes"
	"context"
	"fmt"
	"net/http/httptest"
	"testing"

	"stacksync/internal/chunker"
	"stacksync/internal/core"
	"stacksync/internal/metastore"
	"stacksync/internal/mq"
	"stacksync/internal/objstore"
	"stacksync/internal/omq"
)

// TestFullyNetworkedDeployment runs the whole stack across real transports:
// the broker behind its TCP server, the storage back-end behind its HTTP
// gateway, and two devices connected only through those endpoints — the
// paper's actual deployment shape, in-process nowhere except the service.
func TestFullyNetworkedDeployment(t *testing.T) {
	// Server side.
	broker := mq.NewBroker()
	defer broker.Close()
	mqSrv, err := mq.NewServer(broker, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer mqSrv.Close()

	storage := objstore.NewMemory()
	gw := httptest.NewServer(objstore.NewHandler(storage, "swift-token"))
	defer gw.Close()

	meta := metastore.NewStore()
	defer meta.Close()
	if err := meta.CreateWorkspace(metastore.Workspace{ID: "net-ws", Owner: "alice", Members: []string{"bob"}}); err != nil {
		t.Fatal(err)
	}
	serviceMQ, err := mq.Dial(mqSrv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer serviceMQ.Close()
	serviceBroker, err := omq.NewBroker(serviceMQ)
	if err != nil {
		t.Fatal(err)
	}
	defer serviceBroker.Close()
	if _, err := core.NewService(meta, serviceBroker).Bind(); err != nil {
		t.Fatal(err)
	}

	// Client side: everything over the network.
	newDevice := func(user, device string) *Client {
		t.Helper()
		conn, err := mq.Dial(mqSrv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = conn.Close() })
		b, err := omq.NewBroker(conn)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = b.Close() })
		c, err := NewClient(Config{
			UserID: user, DeviceID: device, WorkspaceID: "net-ws",
			Broker:  b,
			Storage: objstore.NewHTTPStore(gw.URL, "swift-token"),
			Chunker: chunker.Fixed{ChunkSize: 8 * 1024},
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = c.Close() })
		return c
	}

	alice := newDevice("alice", "alice-net")
	bob := newDevice("bob", "bob-net")

	payload := bytes.Repeat([]byte("networked sync "), 2000) // ~30 KB, 4 chunks
	if err := alice.PutFile("photo.raw", payload); err != nil {
		t.Fatal(err)
	}
	if err := bob.WaitForVersion("photo.raw", 1, syncWait); err != nil {
		t.Fatal(err)
	}
	got, ok := bob.FileContent("photo.raw")
	if !ok || !bytes.Equal(got, payload) {
		t.Fatal("content diverged across network transports")
	}

	// Several more files to exercise the transports under load.
	for i := 0; i < 10; i++ {
		name := fmt.Sprintf("doc-%d.txt", i)
		if err := bob.PutFile(name, []byte(fmt.Sprintf("doc %d", i))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		if err := alice.WaitForVersion(fmt.Sprintf("doc-%d.txt", i), 1, syncWait); err != nil {
			t.Fatal(err)
		}
	}

	// The chunks of every file really live behind the gateway.
	var keys []string
	for i := -1; i < 10; i++ {
		content := payload
		if i >= 0 {
			content = []byte(fmt.Sprintf("doc %d", i))
		}
		chunks, err := chunker.SplitBytes(chunker.Fixed{ChunkSize: 8 * 1024}, content)
		if err != nil {
			t.Fatal(err)
		}
		for _, ch := range chunks {
			keys = append(keys, ch.Fingerprint)
		}
	}
	present, err := storage.ExistsMulti(context.Background(), WorkspaceContainer("net-ws"), keys)
	if err != nil {
		t.Fatal(err)
	}
	for i, ok := range present {
		if !ok {
			t.Fatalf("chunk %d of %d is not in the gateway store", i, len(keys))
		}
	}
}

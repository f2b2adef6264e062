package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"stacksync/internal/chunker"
	"stacksync/internal/codec"
	"stacksync/internal/core"
	"stacksync/internal/metastore"
	"stacksync/internal/mq"
	"stacksync/internal/obs"
	"stacksync/internal/omq"
	"stacksync/internal/wire"
)

// Isolation probes: layers that offer no interface seam (codec, wire,
// metastore, omq, broker internals) are costed by calling their public
// functions directly, outside the deployment, on inputs taken from the run
// that just ended. Each probe runs for probeBudget.
const probeBudget = 150 * time.Millisecond

// probeInputs is what a traced run hands the probes.
type probeInputs struct {
	items   []metastore.ItemVersion // committed versions of workspace 0
	sample  []byte                  // a file the workload synced
	dir     string                  // scratch directory, on the data disk
	fanout  int                     // devices bound to one workspace exchange
	writers int                     // commits the deployment runs at once
}

// probeCosts are the isolation numbers; metric names are in perLayerMetrics.
type probeCosts struct {
	marshalNS, unmarshalNS         float64
	notifMarshalNS, notifUnmarshal float64
	requestBytes, notifBytes       float64
	wireEncodeNS, wireDecodeNS     float64
	wireOverheadBytes              float64
	brokerNS, fanoutNSQueue        float64
	loopbackUpNS, loopbackDownNS   float64
	omqCallNS                      float64
	commitNS, commitsPerFlush      float64
	fsyncsPerS, walBytesPerCommit  float64
	changesSinceNS                 float64
	splitMBps, fingerprintMBps     float64
	compressMBps, decompressMBps   float64
}

// timeLoop calls fn until the budget is spent and returns ns per call.
func timeLoop(fn func()) float64 {
	began := time.Now()
	n := 0
	for time.Since(began) < probeBudget {
		fn()
		n++
	}
	return float64(time.Since(began).Nanoseconds()) / float64(n)
}

func mbps(nsPerCall float64, bytes int) float64 {
	return float64(bytes) / 1e6 / (nsPerCall / 1e9)
}

func runProbes(in probeInputs) (probeCosts, error) {
	var pc probeCosts
	if len(in.items) == 0 || len(in.sample) == 0 {
		return pc, fmt.Errorf("probes: the run captured no committed item or no file content")
	}
	item := in.items[len(in.items)/2]
	req := core.CommitRequest{Workspace: item.Workspace, DeviceID: item.DeviceID, Items: []metastore.ItemVersion{item}}
	notif := core.CommitNotification{Workspace: item.Workspace, DeviceID: item.DeviceID,
		Results: []core.CommitResult{{Committed: true, Item: item, Proposed: item}}}

	// codec: the default codec on the request and notification that flowed.
	c := codec.Default()
	var buf []byte
	var err error
	pc.marshalNS = timeLoop(func() { buf, err = c.MarshalAppend(buf[:0], req) })
	if err != nil {
		return pc, fmt.Errorf("probe codec: %w", err)
	}
	reqBytes := append([]byte(nil), buf...)
	pc.requestBytes = float64(len(reqBytes))
	pc.unmarshalNS = timeLoop(func() {
		var out core.CommitRequest
		err = c.Unmarshal(reqBytes, &out)
	})
	if err != nil {
		return pc, fmt.Errorf("probe codec: %w", err)
	}
	pc.notifMarshalNS = timeLoop(func() { buf, err = c.MarshalAppend(buf[:0], notif) })
	notifBytes := append([]byte(nil), buf...)
	pc.notifBytes = float64(len(notifBytes))
	pc.notifUnmarshal = timeLoop(func() {
		var out core.CommitNotification
		err = c.Unmarshal(notifBytes, &out)
	})
	if err != nil {
		return pc, fmt.Errorf("probe codec: %w", err)
	}

	// wire: one publish frame carrying a request-sized body.
	frame := &wire.Frame{Op: wire.OpPublish, Seq: 1 << 20, Key: core.ServiceOID, Body: reqBytes, Persistent: true}
	var wbuf bytes.Buffer
	fw := wire.NewWriter(&wbuf)
	pc.wireEncodeNS = timeLoop(func() { wbuf.Reset(); err = fw.Write(frame) })
	if err != nil {
		return pc, fmt.Errorf("probe wire: %w", err)
	}
	encoded := append([]byte(nil), wbuf.Bytes()...)
	pc.wireOverheadBytes = float64(len(encoded) - len(reqBytes))
	rd := bytes.NewReader(encoded)
	fr := wire.NewReader(rd)
	pc.wireDecodeNS = timeLoop(func() { rd.Reset(encoded); _, err = fr.Read() })
	if err != nil {
		return pc, fmt.Errorf("probe wire: %w", err)
	}

	if pc.brokerNS, err = probeBroker(1, reqBytes); err != nil {
		return pc, err
	}
	perPublish, err := probeBroker(in.fanout, notifBytes)
	if err != nil {
		return pc, err
	}
	pc.fanoutNSQueue = perPublish / float64(in.fanout)
	if pc.loopbackUpNS, err = probeLoopback(in.dir, reqBytes, true); err != nil {
		return pc, err
	}
	if pc.loopbackDownNS, err = probeLoopback(in.dir, notifBytes, false); err != nil {
		return pc, err
	}
	if pc.omqCallNS, err = probeOMQ(); err != nil {
		return pc, err
	}
	if err := probeMetastore(in, &pc); err != nil {
		return pc, err
	}

	// chunker: cut+fingerprint, whole-file fingerprint, gzip both ways, on a
	// file of the workload.
	chunkOf := in.sample[:min(len(in.sample), chunker.DefaultChunkSize)]
	pc.splitMBps = mbps(timeLoop(func() { _, err = chunker.SplitBytes(chunker.NewFixed(), in.sample) }), len(in.sample))
	pc.fingerprintMBps = mbps(timeLoop(func() { _ = chunker.Fingerprint(in.sample) }), len(in.sample))
	var packed []byte
	pc.compressMBps = mbps(timeLoop(func() { packed, err = chunker.Compress(chunkOf, chunker.Gzip) }), len(chunkOf))
	if err != nil {
		return pc, fmt.Errorf("probe chunker: %w", err)
	}
	pc.decompressMBps = mbps(timeLoop(func() { _, err = chunker.Decompress(packed, chunker.Gzip) }), len(chunkOf))
	if err != nil {
		return pc, fmt.Errorf("probe chunker: %w", err)
	}
	return pc, nil
}

// probeBroker measures an in-process broker's publish→deliver→ack cost per
// publish, with queues bound to one fanout exchange.
func probeBroker(queues int, body []byte) (float64, error) {
	b := mq.NewBroker()
	if err := b.DeclareExchange("probe", mq.Fanout); err != nil {
		return 0, err
	}
	var wg sync.WaitGroup
	delivered := make(chan struct{}, queues)
	for q := 0; q < queues; q++ {
		name := fmt.Sprintf("probe-q%d", q)
		if err := b.DeclareQueue(name); err != nil {
			return 0, err
		}
		if err := b.BindQueue(name, "probe", ""); err != nil {
			return 0, err
		}
		sub, err := b.Subscribe(name, 1)
		if err != nil {
			return 0, err
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for d := range sub.Deliveries() {
				_ = d.Ack()
				delivered <- struct{}{}
			}
		}()
	}
	var perr error
	ns := timeLoop(func() {
		if err := b.Publish("probe", "", mq.Message{Body: body, Persistent: true}); err != nil {
			perr = err
		}
		for q := 0; q < queues; q++ {
			<-delivered
		}
	})
	_ = b.Close()
	wg.Wait()
	return ns, perr
}

// probeLoopback measures one hop between a device and the broker as the
// deployment makes it: a journaled broker behind mq.Server on a loopback
// socket. up times a publish over TCP until an in-process consumer has the
// message (a request reaching a SyncService); down times an in-process
// publish until a consumer on the TCP connection has it (a notification
// reaching a device).
func probeLoopback(dir string, body []byte, up bool) (float64, error) {
	journal := filepath.Join(dir, "probe.journal")
	defer os.Remove(journal)
	b, err := mq.RecoverBroker(journal)
	if err != nil {
		return 0, fmt.Errorf("probe loopback: %w", err)
	}
	defer b.Close()
	srv, err := mq.NewServer(b, "127.0.0.1:0")
	if err != nil {
		return 0, fmt.Errorf("probe loopback: %w", err)
	}
	defer srv.Close()
	conn, err := mq.Dial(srv.Addr())
	if err != nil {
		return 0, fmt.Errorf("probe loopback: %w", err)
	}
	defer conn.Close()
	if err := b.DeclareQueue("probe"); err != nil {
		return 0, err
	}
	var publisher, consumer mq.MQ = conn, b
	if !up {
		publisher, consumer = b, conn
	}
	sub, err := consumer.Subscribe("probe", 1)
	if err != nil {
		return 0, fmt.Errorf("probe loopback: %w", err)
	}
	delivered := make(chan struct{}, 1)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for d := range sub.Deliveries() {
			delivered <- struct{}{}
			_ = d.Ack()
		}
	}()
	var perr error
	ns := timeLoop(func() {
		if err := publisher.Publish("", "probe", mq.Message{Body: body, Persistent: true}); err != nil {
			perr = err
			return
		}
		<-delivered
	})
	_ = sub.Cancel()
	<-done
	return ns, perr
}

// nullService is the empty remote object behind the omq probe.
type nullService struct{}

func (nullService) Null() error { return nil }

// probeOMQ measures a @SyncMethod round trip that does nothing, over an
// in-process broker: the cost of omq's envelope, dispatch and reply path.
func probeOMQ() (float64, error) {
	b := mq.NewBroker()
	defer b.Close()
	server, err := omq.NewBroker(b)
	if err != nil {
		return 0, err
	}
	defer server.Close()
	caller, err := omq.NewBroker(b)
	if err != nil {
		return 0, err
	}
	defer caller.Close()
	if _, err := server.Bind("probe.null", nullService{}); err != nil {
		return 0, err
	}
	proxy := caller.Lookup("probe.null")
	var cerr error
	ns := timeLoop(func() {
		if err := proxy.Call("Null", nil); err != nil {
			cerr = err
		}
	})
	return ns, cerr
}

// probeMetastore replays the captured versions as fresh proposals against a
// metadata store with its WAL on the data disk, from as many goroutines as
// the deployment has SyncService instances.
func probeMetastore(in probeInputs, pc *probeCosts) error {
	path := filepath.Join(in.dir, "probe.wal")
	defer os.Remove(path)
	reg := obs.NewRegistry()
	store, err := metastore.Recover(path, metastore.WithRegistry(reg))
	if err != nil {
		return fmt.Errorf("probe metastore: %w", err)
	}
	defer store.Close()
	ws := in.items[0].Workspace
	if err := store.CreateWorkspace(metastore.Workspace{ID: ws, Owner: benchUser, Members: []string{benchUser}}); err != nil {
		return fmt.Errorf("probe metastore: %w", err)
	}
	flushesBefore := reg.CounterValue("metastore_wal_flushes_total")
	var mu sync.Mutex
	var wg sync.WaitGroup
	var total time.Duration
	var commits int
	var perr error
	began := time.Now()
	for g := 0; g < in.writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var took time.Duration
			n := 0
			for round := 0; time.Since(began) < 2*probeBudget; round++ {
				for _, it := range in.items {
					// A fresh item per proposal, so every one commits.
					it.ItemID = fmt.Sprintf("%s-%d-%d", it.ItemID, g, round)
					it.Path = fmt.Sprintf("%s.%d.%d", it.Path, g, round)
					it.Version, it.Status = 1, metastore.Added
					t0 := time.Now()
					res, err := store.CommitBatch([]metastore.ItemVersion{it})
					took += time.Since(t0)
					n++
					if err != nil || !res[0].Committed {
						mu.Lock()
						perr = fmt.Errorf("probe metastore: commit refused: %v", err)
						mu.Unlock()
						return
					}
					if time.Since(began) >= 2*probeBudget {
						break
					}
				}
			}
			mu.Lock()
			total += took
			commits += n
			mu.Unlock()
		}(g)
	}
	wg.Wait()
	elapsed := time.Since(began)
	if perr != nil {
		return perr
	}
	flushes := float64(reg.CounterValue("metastore_wal_flushes_total") - flushesBefore)
	pc.commitNS = float64(total.Nanoseconds()) / float64(commits)
	pc.commitsPerFlush = float64(commits) / flushes
	pc.fsyncsPerS = flushes / elapsed.Seconds()
	if info, err := os.Stat(path); err == nil {
		pc.walBytesPerCommit = float64(info.Size()) / float64(commits)
	}
	head, err := store.CommitVersionOf(ws)
	if err != nil {
		return fmt.Errorf("probe metastore: %w", err)
	}
	// A reconnecting device asks for the tail it missed; ask for the last
	// tenth of the log.
	since := head - min(head, max(head/10, 1))
	pc.changesSinceNS = timeLoop(func() { _, err = store.ChangesSince(ws, since) })
	if err != nil {
		return fmt.Errorf("probe metastore: %w", err)
	}
	return nil
}

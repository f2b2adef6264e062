// Package stacksync's root benchmarks regenerate the paper's evaluation:
// one testing.B benchmark per table and figure (§5). Run them with
//
//	go test -bench=. -benchmem
//
// Each benchmark reports experiment-specific metrics through b.ReportMetric
// so the published shape is visible straight from the bench output; the
// full row/series printouts come from `go run ./cmd/experiments`.
package stacksync_test

import (
	"bytes"
	"fmt"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"stacksync/internal/bench"
	"stacksync/internal/metastore"
	"stacksync/internal/mq"
	"stacksync/internal/obs"
	"stacksync/internal/trace"
	"stacksync/internal/wire"
)

// benchTrace is a reduced §5.2.1 trace: same generator, same distributions,
// fewer snapshots so a bench iteration stays in seconds.
func benchTrace() trace.GenConfig {
	return trace.GenConfig{Seed: 1, InitialFiles: 5, TrainIterations: 2, Snapshots: 12, BirthMean: 4}
}

// BenchmarkFig7aTraceGeneration regenerates Fig. 7(a): the benchmark trace
// and its file-size CDF.
func BenchmarkFig7aTraceGeneration(b *testing.B) {
	var under4MB float64
	for i := 0; i < b.N; i++ {
		res := bench.RunFig7a(trace.GenConfig{Seed: int64(i + 1)})
		for _, p := range res.Points {
			if p.Value == float64(4<<20) {
				under4MB = p.Fraction
			}
		}
	}
	b.ReportMetric(under4MB, "P(size<=4MB)")
}

// BenchmarkFig7bProtocolOverhead regenerates Fig. 7(b): total traffic over
// benchmark volume for StackSync (measured) vs the five provider models.
func BenchmarkFig7bProtocolOverhead(b *testing.B) {
	tr := trace.Generate(benchTrace())
	var stacksync, dropbox float64
	for i := 0; i < b.N; i++ {
		res, err := bench.RunFig7b(tr)
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range res.Rows {
			switch row.Provider {
			case "StackSync":
				stacksync = row.Overhead
			case "Dropbox":
				dropbox = row.Overhead
			}
		}
	}
	b.ReportMetric(stacksync, "stacksync-overhead-x")
	b.ReportMetric(dropbox, "dropbox-overhead-x")
}

// BenchmarkFig7cControlTraffic regenerates Fig. 7(c): per-action control
// traffic, StackSync vs Dropbox.
func BenchmarkFig7cControlTraffic(b *testing.B) {
	tr := trace.Generate(benchTrace())
	var ssAdd, dbAdd float64
	for i := 0; i < b.N; i++ {
		res, err := bench.RunFig7cd(tr)
		if err != nil {
			b.Fatal(err)
		}
		ssAdd = float64(res.StackSyncControl["ADD"])
		dbAdd = float64(res.DropboxControl["ADD"])
	}
	b.ReportMetric(ssAdd/1e3, "stacksync-ADD-ctl-KB")
	b.ReportMetric(dbAdd/1e3, "dropbox-ADD-ctl-KB")
}

// BenchmarkFig7dStorageTraffic regenerates Fig. 7(d): per-action storage
// traffic, StackSync vs Dropbox (delta encoding wins on UPDATE).
func BenchmarkFig7dStorageTraffic(b *testing.B) {
	tr := trace.Generate(benchTrace())
	var ssUpd, dbUpd float64
	for i := 0; i < b.N; i++ {
		res, err := bench.RunFig7cd(tr)
		if err != nil {
			b.Fatal(err)
		}
		ssUpd = float64(res.StackSyncStorage["UPDATE"])
		dbUpd = float64(res.DropboxStorage["UPDATE"])
	}
	b.ReportMetric(ssUpd/1e6, "stacksync-UPD-stor-MB")
	b.ReportMetric(dbUpd/1e6, "dropbox-UPD-stor-MB")
}

// BenchmarkTable2Bundling regenerates Table 2: the effect of file bundling
// on control traffic at batch sizes 5..40.
func BenchmarkTable2Bundling(b *testing.B) {
	tr := trace.Generate(benchTrace())
	var ctl5, ctl40 float64
	for i := 0; i < b.N; i++ {
		res, err := bench.RunTable2(tr)
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range res.Rows {
			if row.Provider == "StackSync" && row.BatchSize == 5 {
				ctl5 = float64(row.ControlBytes)
			}
			if row.Provider == "StackSync" && row.BatchSize == 40 {
				ctl40 = float64(row.ControlBytes)
			}
		}
	}
	b.ReportMetric(ctl5/1e3, "stacksync-batch5-ctl-KB")
	b.ReportMetric(ctl40/1e3, "stacksync-batch40-ctl-KB")
}

// BenchmarkFig7eSyncTime regenerates Fig. 7(e): time to bring six devices in
// sync per action type.
func BenchmarkFig7eSyncTime(b *testing.B) {
	var addMedian, removeMedian float64
	for i := 0; i < b.N; i++ {
		res, err := bench.RunFig7e(40, int64(i+1))
		if err != nil {
			b.Fatal(err)
		}
		addMedian = res.Boxplots["ADD"].Median
		removeMedian = res.Boxplots["REMOVE"].Median
	}
	b.ReportMetric(addMedian*1000, "ADD-median-ms")
	b.ReportMetric(removeMedian*1000, "REMOVE-median-ms")
}

// BenchmarkFig7fSizeSweep regenerates Fig. 7(f): sync time vs file size.
func BenchmarkFig7fSizeSweep(b *testing.B) {
	var small, large float64
	for i := 0; i < b.N; i++ {
		res, err := bench.RunFig7f(2)
		if err != nil {
			b.Fatal(err)
		}
		small = res.Points[0].MeanSec
		large = res.Points[len(res.Points)-1].MeanSec
	}
	b.ReportMetric(small*1000, "128KB-ms")
	b.ReportMetric(large*1000, "8MB-ms")
}

// BenchmarkFig8aAutoScaling regenerates Fig. 8(a,b): the day-8 UB1 replay
// under predictive+reactive provisioning.
func BenchmarkFig8aAutoScaling(b *testing.B) {
	var maxInstances, violations float64
	for i := 0; i < b.N; i++ {
		res := bench.RunFig8ab(int64(i + 1))
		maxInstances = float64(res.MaxInstances())
		violations = res.ViolationFraction() * 100
	}
	b.ReportMetric(maxInstances, "max-instances")
	b.ReportMetric(violations, "sla-violations-%")
}

// BenchmarkFig8cMisprediction regenerates Fig. 8(c–e): the fooled predictor
// corrected by the reactive layer.
func BenchmarkFig8cMisprediction(b *testing.B) {
	var earlyP95, lateP95 float64
	for i := 0; i < b.N; i++ {
		res := bench.RunFig8cde(int64(i + 1))
		earlyP95 = res.Minutes[2].P95RespMs
		lateP95 = res.Minutes[10].P95RespMs
	}
	b.ReportMetric(earlyP95, "mispredicted-p95-ms")
	b.ReportMetric(lateP95, "corrected-p95-ms")
}

// BenchmarkFig8fFaultTolerance regenerates Fig. 8(f): commit response times
// with the SyncService instance crashing on a schedule.
func BenchmarkFig8fFaultTolerance(b *testing.B) {
	var steady, crashed float64
	for i := 0; i < b.N; i++ {
		res, err := bench.RunFig8f(bench.Fig8fConfig{
			Duration:   4 * time.Second,
			CrashEvery: 1200 * time.Millisecond,
			CheckEvery: 100 * time.Millisecond,
			CommitGap:  10 * time.Millisecond,
		})
		if err != nil {
			b.Fatal(err)
		}
		steady = res.Steady.Median * 1000
		crashed = res.Crashed.Median * 1000
	}
	b.ReportMetric(steady, "steady-median-ms")
	b.ReportMetric(crashed, "crashed-median-ms")
}

// commitWorkload drives one fixed metadata workload — 8 workspaces × 4
// writers per workspace × 16 commits per writer, every commit durable through
// the WAL. With parallel=false the same commits run from a single goroutine:
// each commit waits out its own WAL flush before the next starts. Parallel
// committers instead share group-commit flushes, so the win this benchmark
// shows is flush amortisation plus cross-workspace concurrency.
func commitWorkload(b *testing.B, parallel bool) {
	const (
		nWorkspaces = 8
		nWriters    = 4
		nCommits    = 16
	)
	var writes, written, faults int64 // write calls, bytes and minor faults while timed
	var held int64                    // heap the stores hold after their commits
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		heap0 := heapAfterGC()
		st, err := metastore.Recover(filepath.Join(b.TempDir(), "wal.log"))
		if err != nil {
			b.Fatal(err)
		}
		for ws := 0; ws < nWorkspaces; ws++ {
			if err := st.CreateWorkspace(metastore.Workspace{ID: fmt.Sprintf("ws-%d", ws), Owner: "bench"}); err != nil {
				b.Fatal(err)
			}
		}
		write := func(ws, wr int) error {
			for v := uint64(1); v <= nCommits; v++ {
				_, err := st.CommitVersion(metastore.ItemVersion{
					Workspace: fmt.Sprintf("ws-%d", ws),
					ItemID:    fmt.Sprintf("item-%d", wr),
					Path:      fmt.Sprintf("/bench/%d", wr),
					Version:   v,
					Status:    metastore.Modified,
					DeviceID:  fmt.Sprintf("dev-%d", wr),
					Checksum:  fmt.Sprintf("c%d", v),
				})
				if err != nil {
					return err
				}
			}
			return nil
		}
		writes0, written0, faults0 := obs.ProcessIO("syscw"), obs.ProcessIO("write_bytes"), obs.MinorFaults()
		b.StartTimer()
		if parallel {
			var wg sync.WaitGroup
			var mu sync.Mutex
			var firstErr error
			for ws := 0; ws < nWorkspaces; ws++ {
				for wr := 0; wr < nWriters; wr++ {
					wg.Add(1)
					go func(ws, wr int) {
						defer wg.Done()
						if err := write(ws, wr); err != nil {
							mu.Lock()
							if firstErr == nil {
								firstErr = err
							}
							mu.Unlock()
						}
					}(ws, wr)
				}
			}
			wg.Wait()
			if firstErr != nil {
				b.Fatal(firstErr)
			}
		} else {
			for ws := 0; ws < nWorkspaces; ws++ {
				for wr := 0; wr < nWriters; wr++ {
					if err := write(ws, wr); err != nil {
						b.Fatal(err)
					}
				}
			}
		}
		b.StopTimer()
		writes += obs.ProcessIO("syscw") - writes0
		written += obs.ProcessIO("write_bytes") - written0
		faults += obs.MinorFaults() - faults0
		held += heapAfterGC() - heap0
		if err := st.Close(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
	b.StopTimer()
	total := float64(b.N) * nWorkspaces * nWriters * nCommits
	b.ReportMetric(total/b.Elapsed().Seconds(), "commits/s")
	b.ReportMetric(float64(writes)/total, "writes/commit")
	b.ReportMetric(float64(written)/total, "write_B/commit")
	b.ReportMetric(float64(faults)/total, "minflt/commit")
	b.ReportMetric(float64(held)/total, "heapB/version")
}

// heapAfterGC is the live heap once a collection has run.
func heapAfterGC() int64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return int64(m.HeapAlloc)
}

// BenchmarkCommitParallelWorkspaces measures the metadata commit hot path:
// serial is the baseline (one committer, one WAL fsync per record), and
// parallel runs 8 workspaces × 4 goroutines each, every workspace's writers
// serialized by its own lock and all of them sharing group commits.
// writes/commit counts the process's write calls, write_B/commit the bytes
// it is charged for writing and minflt/commit its minor faults while timed:
// each WAL sync is one direct write of the dirty sectors, a sector or two,
// and the WAL's buffer faults once per new page of records. heapB/version
// is the heap the store holds after its commits, per committed version: its
// change log and each item's current version.
func BenchmarkCommitParallelWorkspaces(b *testing.B) {
	b.Run("serial", func(b *testing.B) { commitWorkload(b, false) })
	b.Run("parallel", func(b *testing.B) { commitWorkload(b, true) })
}

// BenchmarkTransferPipeline measures the client's chunk upload throughput
// over the simulated store (1 ms per request, per object): serial is the
// one-chunk-at-a-time baseline (1 worker, batch 1), pipelined is the
// default-shaped pipeline (8 workers × 16-chunk batches with the
// server-assisted dedup probe folded into each batch). Both legs report
// MB/s; the pipelined leg is expected to reach >= 3x serial.
func BenchmarkTransferPipeline(b *testing.B) {
	run := func(b *testing.B, workers, batch int) {
		var mbps float64
		for i := 0; i < b.N; i++ {
			res, err := bench.RunTransferPipeline(bench.TransferOptions{
				Chunks: 128, ChunkSize: 8 << 10,
				Workers: workers, Batch: batch,
				PerRequest: 2 * time.Millisecond,
				Seed:       int64(i + 1),
			})
			if err != nil {
				b.Fatal(err)
			}
			mbps = res.MBps()
		}
		b.ReportMetric(mbps, "MB/s")
	}
	b.Run("serial", func(b *testing.B) { run(b, 1, 1) })
	b.Run("pipelined", func(b *testing.B) { run(b, 8, 16) })
}

// BenchmarkMultiInstanceCommit measures commit throughput on the shared
// request queue: a compressed UB1 day-8 peak-hour slice replayed as
// synchronous commitRequests over a fleet of 1 vs 4 SyncService instances. Every iteration asserts the robustness contract (no failed and
// no lost acked commits) before reporting commits/min per fleet size.
func BenchmarkMultiInstanceCommit(b *testing.B) {
	run := func(b *testing.B, instances int) {
		var rate, p99ms float64
		for i := 0; i < b.N; i++ {
			res, err := bench.RunUB1Multi(bench.UB1MultiConfig{
				Seed:       int64(i + 1),
				Instances:  instances,
				Commits:    600,
				Committers: 8,
				Duration:   time.Second,
			})
			if err != nil {
				b.Fatal(err)
			}
			if res.Failed > 0 || res.Lost > 0 {
				b.Fatalf("replay broke durability: %d failed, %d lost", res.Failed, res.Lost)
			}
			rate = res.RatePerMinute
			p99ms = float64(res.P99) / 1e6
		}
		b.ReportMetric(rate, "commits/min")
		b.ReportMetric(p99ms, "p99-ms")
	}
	for _, n := range []int{1, 4} {
		b.Run(fmt.Sprintf("instances=%d", n), func(b *testing.B) { run(b, n) })
	}
}

// BenchmarkMQPublishThroughput measures raw broker publish throughput into a
// fanout exchange with 8 bound queues, one Publish per message, reported as
// msgs/s.
func BenchmarkMQPublishThroughput(b *testing.B) {
	const queues = 8
	b.Run("single", func(b *testing.B) {
		br := mq.NewBroker()
		defer br.Close()
		if err := br.DeclareExchange("fan", mq.Fanout); err != nil {
			b.Fatal(err)
		}
		for q := 0; q < queues; q++ {
			name := fmt.Sprintf("q%d", q)
			if err := br.DeclareQueue(name); err != nil {
				b.Fatal(err)
			}
			if err := br.BindQueue(name, "fan", ""); err != nil {
				b.Fatal(err)
			}
		}
		payload := make([]byte, 256)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := br.Publish("fan", "", mq.Message{Body: payload}); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "msgs/s")
	})
}

// BenchmarkWireFrameCodec measures frame encode+decode throughput over an
// in-memory stream — the broker→proxy wire hot path minus the TCP stack. The
// frame shape is a typical delivery: trace-context headers plus a 256-byte
// body.
// It reports the binary leg's frames/s and allocs/op (the one leg left since
// the pre-v2 JSON framing was removed).
func BenchmarkWireFrameCodec(b *testing.B) {
	frame := &wire.Frame{
		Op: wire.OpDeliver, Queue: "sync.requests", ConsumerID: "c1",
		DeliveryID: 42, MessageID: "m-12345",
		Headers:    map[string]string{"x-obs-trace": "4bf92f3577b34da6", "x-obs-span": "00f067aa0ba902b7"},
		Body:       make([]byte, 256),
		Persistent: true,
	}
	b.Run("binary", func(b *testing.B) {
		var buf bytes.Buffer
		w := wire.NewWriter(&buf)
		r := wire.NewReader(&buf)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := w.Write(frame); err != nil {
				b.Fatal(err)
			}
			f, err := r.Read()
			if err != nil {
				b.Fatal(err)
			}
			if f.Op != wire.OpDeliver || len(f.Body) != 256 {
				b.Fatalf("bad frame: %+v", f)
			}
		}
		b.StopTimer()
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "frames/s")
	})
}

// readWriteMix drives 4 writers committing flat out against the MVCC store
// while `readers` goroutines poll the same store, whose reads a lock shared
// with the writers would make contend with the commit path. Each poll is a
// ChangesSince on a read-side workspace (full State scan every 8th
// iteration), with every 16th iteration tailing a written workspace from the
// reader's cursor so the change-log replay path stays in the mix without the
// benchmark degenerating into measuring O(readers x commits) tail-copy
// bandwidth. Polls pace at 10 ms: a reconnecting client issues one resync,
// not a busy-loop, and on a single-core runner unpaced readers would divide
// the CPU ~64:1 against the writers and measure scheduler fairness instead
// of locking. Each b.N iteration runs a fixed workload (4 writers x 8192
// commits against a fresh store) so the derived commits/s is stable at
// -benchtime 1x. The acceptance bar for the lock-free read path (DESIGN §16)
// is readers=256 commits/s within 10% of the readers=0 baseline; the
// pre-MVCC RWMutex store served ~1 commit/s under an unpaced 64:1 storm.
func readWriteMix(b *testing.B, readers int) {
	const (
		writers          = 4
		seedItems        = 64
		commitsPerWriter = 8192
		readPause        = 10 * time.Millisecond
	)
	var reads atomic.Int64
	wsName := func(w int) string { return fmt.Sprintf("ws-%d", w) }
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		st := metastore.NewStore()
		for w := 0; w < 2*writers; w++ { // ws-0..3 written, ws-4..7 read-side
			if err := st.CreateWorkspace(metastore.Workspace{ID: wsName(w), Owner: "bench"}); err != nil {
				b.Fatal(err)
			}
			seed := make([]metastore.ItemVersion, seedItems)
			for k := range seed {
				seed[k] = metastore.ItemVersion{
					Workspace: wsName(w),
					ItemID:    fmt.Sprintf("seed-%d", k),
					Path:      fmt.Sprintf("/seed/%d", k),
					Version:   1,
					Status:    metastore.Added,
				}
			}
			if _, err := st.CommitBatch(seed); err != nil {
				b.Fatal(err)
			}
		}
		stop := make(chan struct{})
		var rwg sync.WaitGroup
		for r := 0; r < readers; r++ {
			rwg.Add(1)
			go func(r int) {
				defer rwg.Done()
				cold := wsName(writers + r%writers)
				hot := wsName(r % writers)
				var coldCursor, hotCursor uint64
				for j := 0; ; j++ {
					select {
					case <-stop:
						return
					default:
					}
					ws, cursor := cold, &coldCursor
					if j%16 == 15 {
						ws, cursor = hot, &hotCursor
					}
					ch, err := st.ChangesSince(ws, *cursor)
					if err != nil {
						return
					}
					*cursor = ch.Version
					if j%8 == 0 {
						if _, err := st.State(ws); err != nil {
							return
						}
					}
					reads.Add(1)
					time.Sleep(readPause)
				}
			}(r)
		}
		var wwg sync.WaitGroup
		var mu sync.Mutex
		var firstErr error
		b.StartTimer()
		for w := 0; w < writers; w++ {
			wwg.Add(1)
			go func(w int) {
				defer wwg.Done()
				ws := wsName(w)
				for v := uint64(1); v <= commitsPerWriter; v++ {
					_, err := st.CommitVersion(metastore.ItemVersion{
						Workspace: ws,
						ItemID:    "hot",
						Path:      "/mix/hot.txt",
						Version:   v,
						Status:    metastore.Modified,
						DeviceID:  fmt.Sprintf("dev-%d", w),
						Checksum:  fmt.Sprintf("c%d", v),
					})
					if err != nil {
						mu.Lock()
						if firstErr == nil {
							firstErr = err
						}
						mu.Unlock()
						return
					}
				}
			}(w)
		}
		wwg.Wait()
		b.StopTimer()
		close(stop)
		rwg.Wait()
		if err := st.Close(); err != nil {
			b.Fatal(err)
		}
		if firstErr != nil {
			b.Fatal(firstErr)
		}
		b.StartTimer()
	}
	b.StopTimer()
	elapsed := b.Elapsed().Seconds()
	b.ReportMetric(float64(b.N)*writers*commitsPerWriter/elapsed, "commits/s")
	b.ReportMetric(float64(reads.Load())/elapsed, "reads/s")
}

// BenchmarkReadWriteMix sweeps the readers:writers ratio over the lock-free
// metastore read path: 0 readers is the commit baseline, then 1:1, 8:1 and
// 64:1 (4 writers throughout). The 64:1 commits/s — the leg where the
// pre-MVCC RWMutex collapsed — against the baseline shows a regression on
// either the write path or the read path's isolation.
func BenchmarkReadWriteMix(b *testing.B) {
	for _, readers := range []int{0, 4, 32, 256} {
		b.Run(fmt.Sprintf("readers=%d", readers), func(b *testing.B) {
			readWriteMix(b, readers)
		})
	}
}

#!/bin/sh
# check.sh — the CI gate. Formatting, build, vet, then the full test suite
# under the race detector. The chaos soak is skipped under -short; CI runs it
# here (race-enabled) because the harness's value is precisely its
# concurrency.
set -eu

cd "$(dirname "$0")/.."

# named_test ARGS...: `go test ARGS`, after checking that every name in its
# -run, -bench and -fuzz lists matches a Test/Benchmark/Fuzz function in a
# _test.go file of the packages it names (a prefix match for an unanchored
# list). `go test -run` that matches nothing still exits 0, so a test
# renamed or removed would otherwise drop out of its leg without a word.
named_test() {
    prev= pkgs= lists=
    for arg in "$@"; do
        case $prev in -run|-bench|-fuzz) lists="$lists $arg" ;; esac
        case $arg in .|./*) pkgs="$pkgs ${arg%/}" ;; esac
        prev=$arg
    done
    for list in $lists; do
        [ "$list" = '^$' ] && continue
        case $list in ^*\$) end='(' ;; *) end= ;; esac
        for name in $(printf '%s\n' "$list" | sed -e 's/^^(\{0,1\}//' -e 's/)\{0,1\}\$$//' | tr '|' ' '); do
            found=
            for pkg in $pkgs; do
                if cat "$pkg"/*_test.go 2>/dev/null | grep -q "^func $name$end"; then
                    found=1
                    break
                fi
            done
            if [ -z "$found" ]; then
                echo "check.sh: $name matches no test function in$pkgs" >&2
                exit 1
            fi
        done
    done
    go test "$@"
}

echo "==> gofmt -l"
unformatted=$(gofmt -l ./cmd ./internal ./examples ./benchmark ./*.go)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "==> go build ./..."
go build ./...

# The record logs append through a fallocate'd tail, mapped or written
# with direct I/O, which needs Linux; elsewhere DirectTail is MapTail
# (internal/reclog/direct_other.go), the writer's grow fails with an error
# naming the platform, and replay still works. The tree must still build
# there.
echo "==> go build ./... for darwin and windows"
GOOS=darwin go build ./...
GOOS=windows go build ./...

echo "==> go vet ./..."
go vet ./...

# benchmark/ is its own module (the instrument). It builds against this
# tree, so vet it and run its tests here: TestSmokeEveryWorkload drives all
# four workloads over real sockets, so a refactor or a wire-format change
# that breaks the instrument or the real-process path fails CI. Nothing
# under benchmark/ is edited.
echo "==> benchmark module: go vet, go test"
(cd benchmark && go vet ./...)
(cd benchmark && go test -count=1 .)

# internal/bench alone takes 9–10 minutes under -race on a 2-CPU host, which
# is the go test default timeout; give the pass room instead of a flaky cut.
echo "==> go test -race ./..."
go test -race -timeout 20m ./...

# `go build ./...` only compiles the examples. Run them; each checks its own
# outcome (convergence; a conflict copy of a concurrent edit; the three
# ObjectMQ invocation primitives) and must exit 0.
echo "==> examples: quickstart, sharedworkspace, objectmq"
go run ./examples/quickstart
go run ./examples/sharedworkspace
go run ./examples/objectmq

# The RPC codec and the frame format are the most hand-rolled encoding in
# the tree and every message crosses both: one extra race pass over them,
# over core, whose notifications are what most frames carry, and over mq,
# whose one-way acks pipeline with the frames after them. The SyncService's
# ack-after-publish ordering and its once-only ack of a refused request get
# twenty passes of their own: a notification published from a goroutine, or
# a refusal requeued, would pass one interleaving and fail another.
echo "==> codec + wire (race)"
go test -race -count=1 ./internal/codec/ ./internal/core/ ./internal/omq/ ./internal/wire/ ./internal/mq/
named_test -race -count=20 -run '^(TestNotificationPublishedBeforeRequestAcked|TestRefusedCommitRequestIsAckedOnce)$' ./internal/core/

# The broker server's write path (one outbound queue per connection, woken
# after the broker releases its mutex) and Disk's log (one record per object
# appended under the mutex that installs its index entry, read back by
# concurrent gets from the mapped window or the file) are where a lost wake,
# a frame sent out of order, a read of a record not yet whole or a copy from
# a window already moved on would hide, and the writer is where an oversize
# frame must be dropped alone (TestNetworkOversizeReplyFailsOneCall). The
# record log's writer (concurrent Append/Wait, one syncer at a time with its
# mutex released across each sync; appends from goroutines across several
# windows of the tail, with ReadAt beside them; one opener per log), over
# the mapped tail and over the WAL's direct File too (the "direct" subtests
# of TestWriterConcurrentAppendWait and TestWriterCrossesWindows, where a
# grow must wait out a sync still writing from the old window), and the
# metadata WAL's group commit on it are where a lost wake, a record stored
# into a stale window or an acknowledgement ahead of the sync would hide; a
# copy of the WAL taken amid commits must recover every commit acknowledged
# before it (TestAbandonedWALKeepsWaitedCommits); concurrent workspace creation beside first commits is where a
# commit's record could reach the WAL ahead of its workspace's, and a Close
# amid commits where a write could follow the log's close. HTTPStore's own
# connection pool (reuse, the one retry of a connection the gateway closed,
# a cancel that wakes a blocked call and must not pool its connection, one
# writev per request) and the chunker's pooled gzip state (a reset writer
# must emit a fresh one's bytes from any goroutine) are shared by every
# transfer worker of a device: twenty race-enabled passes over all of them.
echo "==> server write path, chunk log, record-log writer, WAL group commit, gateway client, gzip pool (race, 20x)"
named_test -race -count=20 -run 'TestNetwork|TestDiskServesFreshObjectsFromWindow|TestDiskConcurrentPutGet|TestWriterConcurrentAppendWait|TestWriterCrossesWindows|TestWriterReadAtAcrossWindows|TestSecondOpenOfLiveLogIsRefused|TestWALGroupCommitConcurrent|TestAbandonedWALKeepsWaitedCommits|TestCreateLoggedBeforeFirstCommit|TestCloseWaitsOutWriters|TestHTTPStoreReusesConnections|TestHTTPStoreRetriesStaleConnection|TestHTTPStoreCancelMidFlight|TestHTTPStoreSendsRequestInOneWrite|TestGzipPooledMatchesFresh' \
    ./internal/mq ./internal/objstore ./internal/reclog ./internal/metastore ./internal/chunker

# Extra interleavings over the client's parallel transfer pipeline: many
# writers, overlapping chunks, dedup probes and singleflight coalescing all
# racing — the part of the codebase where a data race would hide best.
echo "==> transfer pipeline stress (race, 3x)"
named_test -race -count=3 -run '^TestTransferPipelineStress$' ./internal/client/

# Cross-instance failover is timing-sensitive by nature: re-run the chaos
# soak (shipped-path devices on one fleet under kills, every instance and
# device tracing into one span sink while instances die and respawn,
# closed by a traced commit after one more kill) and the cross-instance
# linearizability race under the race detector, so a flaky interleaving
# fails here, not downstream.
echo "==> chaos soak + cross-instance linearizability (race, 2x)"
named_test -race -count=2 -run '^(TestChaosSoakConverges|TestCrossInstanceLinearizability)$' ./internal/bench/

# Every SyncService instance of a process writes the one span sink,
# metrics registry and hot-workspace sketch concurrently: extra race
# passes over the admin server that reads them and the supervised fleet
# that writes them from several instances.
echo "==> one observability bundle, many instances (race, 3x)"
named_test -race -count=3 -run '^TestAdminSeesEveryInstance$' ./cmd/stacksync-server/
named_test -race -count=3 -run '^TestSupervisedRoutedFleet$' ./internal/deploy/

# `go test` never executes benchmarks, so run once each the layer benchmarks
# that performance claims cite: a refactor that breaks one fails here, not at
# the next measurement. One iteration each is a smoke pass, not a number.
echo "==> layer-benchmark smoke (1x)"
named_test -run '^$' -benchtime 1x \
    -bench '^(BenchmarkCodec|BenchmarkNotifyDelivery|BenchmarkNetworkFanoutAck|BenchmarkJournalFanout|BenchmarkGatewayBatch|BenchmarkGatewayHotGet|BenchmarkDiskPut|BenchmarkDiskOpen|BenchmarkWireFrameCodec|BenchmarkCommitParallelWorkspaces)$' \
    . ./internal/core/ ./internal/mq/ ./internal/objstore/

# Short coverage-guided fuzz legs over the codecs that parse bytes the
# program did not just write: the wire frame reader, the storage gateway's
# batch bodies, the RPC codec on every envelope and payload omq decodes, and
# the record log's one replay (reclog.Open), reached through each log's
# decoder: the chunk log's at open, the metadata WAL's and the broker
# journal's.
# Ten seconds each is a smoke pass — run `go test -fuzz` open-ended to dig.
echo "==> fuzz smoke: FuzzFrameCodec (10s)"
named_test -run '^$' -fuzz '^FuzzFrameCodec$' -fuzztime 10s ./internal/wire/

echo "==> fuzz smoke: FuzzGatewayBatch (10s)"
named_test -run '^$' -fuzz '^FuzzGatewayBatch$' -fuzztime 10s ./internal/objstore/

echo "==> fuzz smoke: FuzzDiskRecover (10s)"
named_test -run '^$' -fuzz '^FuzzDiskRecover$' -fuzztime 10s ./internal/objstore/

echo "==> fuzz smoke: FuzzBinaryCodec (10s)"
named_test -run '^$' -fuzz '^FuzzBinaryCodec$' -fuzztime 10s ./internal/omq/

echo "==> fuzz smoke: FuzzWALReplay (10s)"
named_test -run '^$' -fuzz '^FuzzWALReplay$' -fuzztime 10s ./internal/metastore/

echo "==> fuzz smoke: FuzzJournalReplay (10s)"
named_test -run '^$' -fuzz '^FuzzJournalReplay$' -fuzztime 10s ./internal/mq/

# The MVCC read path's reply correctness under random commit/compact/read
# interleavings, checked against a serial reference log.
echo "==> fuzz smoke: FuzzChangesSince (10s)"
named_test -run '^$' -fuzz '^FuzzChangesSince$' -fuzztime 10s ./internal/metastore/

# The snapshot-isolation harness and the linearizability harness are the
# proof obligations of the snapshot read path (DESIGN §16): re-run both
# under the race detector, one extra count on top of the full-suite pass.
echo "==> snapshot isolation + linearizability harnesses (race)"
named_test -race -count=1 -run '^(TestSnapshotIsolationUnderConcurrentCommits|TestConcurrentStoreMatchesSerialReference|TestConcurrentSameWorkspaceInvariants)$' ./internal/metastore/

# ROADMAP N8's line budget, printed for information and not a gate:
# root-module non-test Go (tracked files, benchmark/ excluded).
echo "==> root-module non-test Go lines"
git ls-files '*.go' | grep -v -e '_test\.go$' -e '^benchmark/' | xargs cat | wc -l

echo "OK"

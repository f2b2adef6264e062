#!/bin/sh
# check.sh — the CI gate. Formatting, build, vet, then the full test suite
# under the race detector. The chaos soak is skipped under -short; CI runs it
# here (race-enabled) because the harness's value is precisely its
# concurrency.
set -eu

cd "$(dirname "$0")/.."

echo "==> gofmt -l"
unformatted=$(gofmt -l ./cmd ./internal ./examples ./benchmark ./*.go)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "==> go build ./..."
go build ./...

echo "==> go vet ./..."
go vet ./...

# benchmark/ is its own module (the instrument; its tests are
# `cd benchmark && go test .`). It builds against this tree, so compile and
# vet it here: a refactor that breaks the instrument fails CI. Nothing under
# benchmark/ is run or edited.
echo "==> benchmark module: go vet"
(cd benchmark && go vet ./...)

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
# and over mq, whose one-way acks pipeline with the frames after them.
echo "==> codec + wire (race)"
go test -race -count=1 ./internal/codec/ ./internal/omq/ ./internal/wire/ ./internal/mq/

# Extra interleavings over the client's parallel transfer pipeline: many
# writers, overlapping chunks, dedup probes and singleflight coalescing all
# racing — the part of the codebase where a data race would hide best.
echo "==> transfer pipeline stress (race, 3x)"
go test -race -count=3 -run '^TestTransferPipelineStress$' ./internal/client/

# Cross-instance failover is timing-sensitive by nature: re-run the chaos
# soak (shipped-path devices on one fleet under kills, whose collector polls
# concurrently with the kills, closed by a traced commit after one more
# kill) and the cross-instance linearizability race under the race
# detector, so a flaky interleaving fails here, not downstream.
echo "==> chaos soak + cross-instance linearizability (race, 2x)"
go test -race -count=2 -run '^(TestChaosSoakConverges|TestCrossInstanceLinearizability)$' ./internal/bench/

# `go test` never executes benchmarks, so run once each the layer benchmarks
# that performance claims cite: a refactor that breaks one fails here, not at
# the next measurement. One iteration each is a smoke pass, not a number.
echo "==> layer-benchmark smoke (1x)"
go test -run '^$' -benchtime 1x \
    -bench '^(BenchmarkNotifyDelivery|BenchmarkNetworkFanoutAck|BenchmarkJournalFanout|BenchmarkGatewayBatch|BenchmarkWireFrameCodec)$' \
    . ./internal/core/ ./internal/mq/ ./internal/objstore/

# Short coverage-guided fuzz legs over the codecs that parse bytes the
# program did not just write: the wire frame reader, the storage gateway's
# batch bodies, the RPC codec on every envelope and payload omq decodes, WAL
# replay and broker journal replay.
# Ten seconds each is a smoke pass — run `go test -fuzz` open-ended to dig.
echo "==> fuzz smoke: FuzzFrameCodec (10s)"
go test -run '^$' -fuzz '^FuzzFrameCodec$' -fuzztime 10s ./internal/wire/

echo "==> fuzz smoke: FuzzGatewayBatch (10s)"
go test -run '^$' -fuzz '^FuzzGatewayBatch$' -fuzztime 10s ./internal/objstore/

echo "==> fuzz smoke: FuzzBinaryCodec (10s)"
go test -run '^$' -fuzz '^FuzzBinaryCodec$' -fuzztime 10s ./internal/omq/

echo "==> fuzz smoke: FuzzWALReplay (10s)"
go test -run '^$' -fuzz '^FuzzWALReplay$' -fuzztime 10s ./internal/metastore/

echo "==> fuzz smoke: FuzzJournalReplay (10s)"
go test -run '^$' -fuzz '^FuzzJournalReplay$' -fuzztime 10s ./internal/mq/

# The MVCC read path's reply correctness under random commit/compact/read
# interleavings, checked against a serial reference log.
echo "==> fuzz smoke: FuzzChangesSince (10s)"
go test -run '^$' -fuzz '^FuzzChangesSince$' -fuzztime 10s ./internal/metastore/

# The snapshot-isolation harness and the linearizability harness are the
# proof obligations of the lock-free read path (DESIGN §16): re-run both
# under the race detector, one extra count on top of the full-suite pass.
echo "==> snapshot isolation + linearizability harnesses (race)"
go test -race -count=1 -run '^(TestSnapshotIsolationUnderConcurrentCommits|TestShardedStoreMatchesSerialReference|TestConcurrentSameWorkspaceInvariants)$' ./internal/metastore/

echo "OK"

GO ?= go

.PHONY: build test race vet check chaos ub1-multi experiments trace-demo elastic-demo matrix

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

race:
	$(GO) test -race ./...

## check is the gate CI runs: static analysis plus the full suite under the
## race detector. Use `make test` for a faster, detector-free pass.
check: scripts/check.sh
	./scripts/check.sh

## chaos runs the seeded fault soak: shipped-path and routed devices on one
## fleet scaled 1→4→2 under kills, partitions and storage faults, closed by a
## failover probe on the stitched fleet trace (see EXPERIMENTS.md).
chaos:
	$(GO) run ./cmd/experiments -run chaos -quick

## ub1-multi replays the UB1 day-8 peak hour over 4 routed SyncService
## instances and checks durability of every ack plus 450 ms SLO attainment.
ub1-multi:
	$(GO) run ./cmd/experiments -run ub1-multi -quick

experiments:
	$(GO) run ./cmd/experiments -run all -quick

## trace-demo syncs one file across a two-device in-process stack with
## tracing on and prints the end-to-end trace: timeline, critical-path
## breakdown, and the metrics registry after the commit.
trace-demo:
	$(GO) run ./cmd/experiments -run trace

## elastic-demo replays the Fig. 8 day-8 workload through the instrumented
## provisioning stack and prints the over/under-provisioning summary derived
## from scraped time series. Add -admin to inspect /elasticz live.
elastic-demo:
	$(GO) run ./cmd/experiments -run elastic-demo -quick

## matrix runs the scenario matrix (mobile churn, cold-start herd, reconnect
## storm) as correctness/SLO checks and exits non-zero on a violation.
matrix:
	$(GO) run ./cmd/experiments -run matrix -quick

GO ?= go

.PHONY: check build vet test fmt bench bench-sim bench-smoke sim-smoke chaos-smoke scrub-smoke bootstorm-smoke scale-smoke api-smoke perfbench-smoke recovery-smoke

# check is the CI gate: build, vet, race-enabled tests, gofmt cleanliness
# (fails listing the offending files), the short-seed chaos suite, the
# short-seed integrity/scrub suite, the short-seed boot-storm suite and the
# sharded-router scale suite.
check: build vet test fmt chaos-smoke scrub-smoke bootstorm-smoke scale-smoke

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test -race -timeout 30m ./...

fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

bench:
	$(GO) test -bench=. -benchmem

# bench-sim measures the DES kernel hot paths (event queue, process switch,
# timers, resources) with allocation counts; results/simbench.txt holds the
# before/after snapshot of the scheduler rewrite.
bench-sim:
	$(GO) test -run '^$$' -bench . -benchmem -benchtime 300ms ./internal/sim/

# bench-smoke compiles and runs every microbenchmark exactly once. It is a
# CI gate against benchmarks rotting (build or runtime failures), not a
# performance measurement; use `make bench` or `make bench-sim` for numbers.
bench-smoke:
	$(GO) test -run '^$$' -bench 'BenchmarkVMRun|BenchmarkCompile' -benchtime 1x ./internal/ebpf/
	$(GO) test -run '^$$' -bench 'BenchmarkClassifierSuite' -benchtime 1x ./internal/storfn/
	$(GO) test -run '^$$' -bench 'BenchmarkRouterHop|BenchmarkShardDispatch' -benchtime 1x ./internal/core/
	$(GO) test -run '^$$' -bench 'BenchmarkArbiter' -benchtime 1x ./internal/qos/
	$(GO) test -run '^$$' -bench 'BenchmarkClone|BenchmarkCow' -benchtime 1x ./internal/cow/
	$(GO) test -run '^$$' -bench . -benchtime 1x ./internal/sim/

# sim-smoke is the DES-kernel gate: the scheduler and harness under the
# race detector (property tests against the reference heap included), plus
# the golden-CSV determinism check — every experiment with a checked-in
# quick-mode golden must render byte-identical output.
sim-smoke:
	$(GO) test -race -timeout 30m ./internal/sim/... ./internal/harness/...
	$(GO) test -run 'TestGoldenCSVs|TestShardedMatchesSerial|TestParallelMatchesSerial' ./internal/harness/

# perfbench-smoke builds, vets and tests the benchmark program (perfbench/ is
# its own Go module, so the root `go test ./...` never compiles it), then
# pins its virtual time: each workload's seed-1 run must print the published
# event-order digest.
PERFBENCH_DIGESTS := poll-qd1=0904db97ba0f9fb6 fleet-rw=11da121b61fbd0e2 ycsb-enc=ae5a072eeff082ea

perfbench-smoke:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...
	for wd in $(PERFBENCH_DIGESTS); do \
		w=$${wd%%=*}; want=$${wd#*=}; \
		got=$$(python3 perfbench/run.py --workload $$w --seed 1 --seconds 1 --trace 0 | \
			sed -n 's/^workload .*: digest \([0-9a-f]*\) .*/\1/p'); \
		if [ "$$got" != "$$want" ]; then \
			echo "perfbench $$w: digest '$$got', want $$want"; exit 1; \
		fi; \
		echo "perfbench $$w: digest $$got ok"; \
	done

# chaos-smoke runs the UIF supervision suite under the race detector: the
# watchdog/reconcile unit tests, the per-function crash/wedge recovery
# tests and the short-seed end-to-end chaos experiment.
chaos-smoke:
	$(GO) test -race -run 'TestWatchdog|TestBackoff|TestHealthy|TestClassifierHotSwap' ./internal/supervise/ ./internal/nvmeof/
	$(GO) test -race -run 'TestSupervised' ./internal/storfn/
	$(GO) test -race -run 'TestChaos' ./internal/harness/

# scrub-smoke runs the end-to-end data-integrity suite under the race
# detector: PI domain/corrupting-store unit tests and the short-seed
# scrub experiment (detection, replica repair, quarantine, determinism,
# QoS contract under active scrub).
scrub-smoke:
	$(GO) test -race ./internal/integrity/
	$(GO) test -race -run 'TestScrub' ./internal/harness/

# scale-smoke runs the sharded-router suite under the race detector: the
# router tests (round-robin placement balance, promotion fence, per-shard
# QoS merge), the static-verdict unit tests, and the scale experiment's
# any-workers determinism and near-linear-scaling shape checks.
scale-smoke:
	$(GO) test -race ./internal/core/ ./internal/ebpf/
	$(GO) test -race -run 'TestScale' ./internal/harness/

# recovery-smoke runs the host-tag recovery suite: the shared tag table
# and the kernel driver's deadline/retry/quarantine tests, the router's
# reclaimed-tag and backpressure tests, all under the race detector; then
# the fault experiment's golden CSV (byte-identical) without it.
recovery-smoke:
	$(GO) test -race ./internal/nvme/ ./internal/blockdev/
	$(GO) test -race -run 'TestReclaimedHostTag|TestFastPathDeadline|Backpressure' ./internal/core/
	$(GO) test -run 'TestGoldenCSVs/fault$$' ./internal/harness/

# api-smoke runs the public entry points end to end at short durations:
# every example program and every nvmetroctl subcommand.
api-smoke:
	for ex in quickstart encryption replication caching customrouting; do \
		$(GO) run ./examples/$$ex || exit 1; \
	done
	$(GO) run ./cmd/nvmetroctl -duration 2ms
	$(GO) run ./cmd/nvmetroctl qos -duration 2ms
	$(GO) run ./cmd/nvmetroctl chaos -duration 10ms
	$(GO) run ./cmd/nvmetroctl scrub -duration 2ms
	$(GO) run ./cmd/nvmetroctl snap -vms 4 -image 4 -duration 2ms
	$(GO) run ./cmd/nvmetroctl shard -vms 4 -duration 2ms

# bootstorm-smoke runs the snapshot/clone suite under the race detector:
# the cow layer's model-based and property tests, the stack-level clone
# round trip through the router fast path, and the small-fleet boot-storm
# experiment (shared-vs-flat table, clone-cost flatness, determinism).
bootstorm-smoke:
	$(GO) test -race ./internal/cow/
	$(GO) test -race -run 'TestClone' ./internal/stack/
	$(GO) test -race -short -run 'TestBootStorm' ./internal/harness/

GO ?= go

.PHONY: all build test race bench bench-discover smoke-discover bench-store smoke-store bench-txn smoke-txn bench-query smoke-query bench-wal smoke-wal bench-faults smoke-faults bench-shard smoke-shard smoke-serve bench-load smoke-load smoke-fuzz errsweep loc loc-check surface lint fmt vet clean

all: build test

build:
	$(GO) build ./...

test: vet
	$(GO) test ./...

race:
	$(GO) test -race ./...

bench:
	$(GO) test -bench . -benchmem -run '^$$' .

# The FD-discovery engine comparison: naive (one TEST-FDs scan per
# candidate) vs partition (cached stripped partitions), both sizes.
bench-discover:
	$(GO) test -bench 'BenchmarkDiscover' -benchmem -run '^$$' .

# Short-mode differential smoke: the partition engine must return
# FD-for-FD identical output to the naive engine on random workloads.
smoke-discover:
	$(GO) test -short -run 'TestDiscoverDifferential' ./internal/discover

# The store-maintenance engine comparison: incremental (one
# NS-propagation over the touched partition groups) vs recheck (clone
# and re-chase), one-op write-sets — inserts and the write-heavy mixed
# workload — at n=2000, p=8.
bench-store:
	$(GO) test -bench 'BenchmarkStore(Insert|Mixed)' -benchmem -run '^$$' .

# Short-mode history-exerciser smoke: randomized operation histories must
# produce verdict-for-verdict and state-for-state agreement between the
# incremental and recheck maintenance engines.
smoke-store:
	$(GO) test -short -run 'TestHistoryDifferential' ./internal/store

# The write path at k=32: one Txn.Commit of a 32-row write-set per
# engine, plus the same rows as 32 one-op write-sets, the baseline the
# batch is compared against (E18 asserts the >=5x bar with state
# agreement).
bench-txn:
	$(GO) test -bench 'BenchmarkStoreTxn' -benchmem -run '^$$' .

# Short-mode txn smoke under the race detector: the txn-extended history
# exerciser (batched commits vs the one-chase-per-commit oracle) and the
# concurrent snapshot-isolation stress (lock-free staging, serialized
# commits, first-committer-wins).
smoke-txn:
	$(GO) test -race -short -run 'TestTxnHistoryDifferential|TestTxnConcurrentStress' ./internal/store

# The selection-engine comparison: the indexed planner (most selective
# Eq/In/EqAttr conjunct pushed into an X-partition probe) vs the naive
# scan, n={400,2000} both engines, plus the store's cached read path
# (E19 asserts the >=5x bar with answer agreement at n=2000, p=8).
bench-query:
	$(GO) test -bench 'BenchmarkSelect|BenchmarkStoreQuery' -benchmem -run '^$$' .

# Short-mode query smoke: the differential fuzz (both engines vs the
# per-tuple EvalBrute oracle, `!` cells and shared marks included), the
# null-aware join differentials, the plan-time In dedupe regression, the
# E19 sweep's agreement self-check in quick mode, and the explain goldens.
smoke-query:
	$(GO) test -short -run 'TestSelectDifferential|TestSelectAllDifferential|TestSelectJoined|TestInDedupeAtPlanTime' ./internal/query
	$(GO) test -short -run 'TestQuerySweep|TestStoreQueryRefinement' ./cmd/fdbench ./internal/store
	$(GO) test -short -run 'TestQueryExplain' ./cmd/fdquery

# The durable write path: E20 contrasts group commit against
# fsync-per-commit (>=5x bar, every configuration reopened and checked
# against an in-memory oracle) and archives the measurements.
bench-wal:
	$(GO) run ./cmd/fdbench -exp E20 -json BENCH_wal.json

# Short-mode durability smoke: the crash-point exerciser (kill at every
# record boundary + torn tails, reopen, compare to the oracle prefix)
# and, under -race, the concurrent txn history with crash/reopen ops
# plus the handle contract (memory vs durable surface, one record per
# commit, Close against an in-flight Checkpoint).
smoke-wal:
	$(GO) test -short -run 'TestCrashPointExerciser|TestSaveLoadEqualsCheckpointRecovery' ./internal/store
	$(GO) test -race -short -run 'TestDurableConcurrentHistoryWithCrashes|TestHandleDurabilitySurface|TestOneRecordPerCommit|TestCloseDuringCheckpoint' ./internal/store

# The fault-injectable I/O layer: E21 measures the iox.FS indirection on
# the durable commit path (<=5% bar on the nosync pair; the fsync'd pair
# is reported for context) and proves degraded-mode serving + Recover().
bench-faults:
	$(GO) run ./cmd/fdbench -exp E21 -json BENCH_faults.json

# Short-mode fault-injection smoke under the race detector: the
# fault-at-every-I/O-call sweep (strided), a reduced randomized
# multi-fault storm, the recovery-path sweep, and the degraded-mode /
# transient-retry contracts — plus the iox injector's own tests.
smoke-faults:
	$(GO) test -race -short -run 'TestFaultAtEveryIOCall|TestRandomizedFaultSchedules|TestReopenFaultSweep|TestStrayTmpPruned|TestDegraded|TestTransientRetryHeals|TestConcurrentHealthAndRecover' ./internal/store
	$(GO) test -race -short ./internal/iox

# The hash-sharded store: E22 sweeps commit cost over S={1,2,4,8} on the
# recheck engine (>=3x bar at S=8 for key-affine disjoint-key batches,
# every configuration state-checked against the unsharded oracle), plus
# the cross-shard 2PC price and the concurrent incremental sweep.
bench-shard:
	$(GO) run ./cmd/fdbench -exp E22 -json BENCH_shard.json

# Short-mode sharding smoke under the race detector: the sharded history
# exerciser (lockstep vs the unsharded oracle, verdict classes and state),
# the 2PC atomicity stress (SnapshotAll cuts), and the routing/txn units.
smoke-shard:
	$(GO) test -race -short -run 'TestSharded' ./internal/store

# Short-mode daemon smoke under the race detector: boot fdserve, hit it
# with concurrent authenticated clients over the wire (cross-shard txns,
# auth gating, tenant isolation, protocol abuse), restart a durable
# tenant, shut down; plus the CLI wrapper's flag handling.
smoke-serve:
	$(GO) test -race -short -run 'TestServe|TestLoadConfigErrors' ./internal/serve
	$(GO) test -race -short -run 'TestRunFlagErrors' ./cmd/fdserve

# The open-loop load simulator: E23 contrasts the closed-loop mean with
# open-loop tail latency under Poisson arrivals and Zipf skew, sweeps
# offered rate to the saturation knee at S={1,8} (>=3x bar, every point
# state-checked against the replay oracle), and drives a live fdserve
# daemon over TCP; the measurements are archived as BENCH_latency.json.
bench-load:
	$(GO) run ./cmd/fdbench -exp E23 -json BENCH_latency.json

# Short-mode load-simulator smoke under the race detector: a
# deterministic-seed open-loop run against both targets (in-process
# sharded store with oracle replay; live daemon with over-the-wire
# verification), schedule reproducibility, and the fdload CLI's
# same-seed rerun contract.
smoke-load:
	$(GO) test -race -short -run 'TestRunStoreOracle|TestRunReproducibility|TestSweep' ./internal/loadsim
	$(GO) test -race -short -run 'TestServeOpenLoop' ./internal/serve
	$(GO) test -race -short -run 'TestRerunReproducesOpCounts' ./cmd/fdload

# Seed-corpus fuzz smoke: the relio parser, the predicate parser, and
# the WAL record decoder must survive their corpora (use `go test -fuzz`
# locally for open-ended exploration).
smoke-fuzz:
	$(GO) test -short -run 'Fuzz' ./internal/relio ./internal/query
	$(GO) test -short -run 'FuzzWAL' ./internal/store

# errsweep flags discarded error returns of durability-relevant calls
# (Close/Sync/Rename/Remove/...) on the I/O packages; each deliberate
# discard must carry an `errcheck:ok <reason>` annotation.
errsweep:
	$(GO) run ./cmd/errsweep

# Report-only: non-test Go lines (plain wc -l) per package directory,
# bench/ excluded — the number simplification PRs quote.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' | \
		xargs wc -l | awk '$$2 != "total" { d = $$2; sub("/[^/]*$$", "", d); n[d] += $$1; t += $$1 } \
		END { for (d in n) printf "%6d %s\n", n[d], d; printf "%6d total\n", t }' | sort -k2

# The ceiling on `make loc`'s total, set by the last PR that shrank the
# tree to its own result: a PR that lowers the total lowers LOC_MAX with
# it, and one that has to raise it says why in CHANGES.md.
LOC_MAX = 22212

# Report-only: the exported surface of internal/store as `go doc -all`
# prints it — struct types, and funcs + methods — so "N store types with
# M methods" is a number a PR quotes instead of recounting.
surface:
	@$(GO) doc -all ./internal/store | awk '/^type [A-Za-z]+ struct/ { s++ } /^ *func / { f++ } \
		END { printf "internal/store: %d exported struct types, %d exported funcs/methods\n", s, f }'

loc-check:
	@total=$$($(MAKE) -s loc | awk '$$2 == "total" { print $$1 }'); \
	if [ "$$total" -gt $(LOC_MAX) ]; then \
		echo "make loc: $$total non-test lines, over LOC_MAX = $(LOC_MAX)"; exit 1; fi; \
	echo "make loc: $$total non-test lines (LOC_MAX = $(LOC_MAX))"

lint: fmt vet errsweep

fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

clean:
	$(GO) clean ./...

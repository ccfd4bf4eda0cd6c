GO ?= go

.PHONY: all build test race bench bench-repo bench-discover smoke-discover bench-store smoke-store bench-txn smoke-txn bench-query smoke-query smoke-allocs bench-analysis smoke-wal smoke-faults smoke-shard smoke-serve smoke-fuzz errsweep loc loc-check oracle-check surface surface-check lint fmt vet clean

all: build test

build:
	$(GO) build ./...

test: vet
	$(GO) test ./...

race:
	$(GO) test -race ./...

bench:
	$(GO) test -bench . -benchmem -run '^$$' .

# The repository's benchmark (BENCHMARK.json): the three declared
# workloads, three repeats each with every metric's spread printed. This —
# not `make bench` and not cmd/fdbench — is what a performance claim is
# made on; bench/README.md has the method.
bench-repo:
	$(GO) run ./bench -workload kv-read -repeat 3
	$(GO) run ./bench -workload emp-null-mixed -repeat 3
	$(GO) run ./bench -workload batch-analyze -repeat 3

# The FD-discovery engine comparison: naive (one TEST-FDs scan per
# candidate) vs partition (cached stripped partitions), both sizes.
bench-discover:
	$(GO) test -bench 'BenchmarkDiscover' -benchmem -run '^$$' .

# Short-mode differential smoke: the partition engine must return
# FD-for-FD identical output to the naive engine on random workloads.
smoke-discover:
	$(GO) test -short -run 'TestDiscoverDifferential' ./internal/discover

# The store-maintenance engine comparison: incremental (one
# NS-propagation over the touched partition groups; every store but the
# oracle) vs the recheck oracle store.NewRecheckOracle builds (clone and
# re-chase), one-op write-sets — inserts and the write-heavy mixed
# workload — at n=2000, p=8.
bench-store:
	$(GO) test -bench 'BenchmarkStore(Insert|Mixed)' -benchmem -run '^$$' .

# Short-mode history-exerciser smoke: randomized operation histories must
# produce verdict-for-verdict and state-for-state agreement between the
# incremental engine and the recheck oracle, and a refused operation
# must leave no trace (rows, order, indexes, mark index; the table test
# runs every write-set shape the undo log distinguishes).
smoke-store:
	$(GO) test -short -run 'TestHistoryDifferential|TestRollbackLeavesNoTrace' ./internal/store

# The write path at k=32: one Txn.Commit of a 32-row write-set per
# engine, plus the same rows as 32 one-op write-sets, the baseline the
# batch is compared against (TestTxnLargeBatchMatchesOracle holds the
# three to the same final state; no ratio is asserted anywhere). Then the
# wire-to-commit cost of a bulk load's 64-row EMP write-set on two shards:
# the connection's decoder, staging and the sharded commit.
bench-txn:
	$(GO) test -bench 'BenchmarkStoreTxn' -benchmem -run '^$$' .
	$(GO) test -bench 'BenchmarkServeTxn' -benchmem -run '^$$' ./internal/serve

# Short-mode txn smoke under the race detector: the txn-extended history
# exerciser (batched commits vs the one-chase-per-commit oracle) and the
# concurrent snapshot-isolation stress (lock-free staging, serialized
# commits, first-committer-wins), and the delete path's allocation gate
# (a commit costs what its write-set touches, at 1,000 rows as at 100,000).
smoke-txn:
	$(GO) test -race -short -run 'TestTxnHistoryDifferential|TestTxnConcurrentStress|TestDeleteCommitAllocsIndependentOfSize' ./internal/store

# The selection-engine comparison: the indexed planner (most selective
# Eq/In conjunct pushed into an X-partition probe) vs the naive
# scan, n={400,2000} both engines, plus the store's read path — one
# planned selection on the live relation per iteration, nothing memoized
# (TestSelectAllDifferential holds the engines answer-for-answer equal up
# to n=2000; no ratio is asserted anywhere). Then the read kernel on
# kv-read's group shape from a cold cache, in ns per candidate row:
# Plan.Run over 586-row groups spaced 256 apart in 150k rows, plus a read
# of the answer's constants; every iteration first sweeps a buffer larger
# than the last-level cache, so the count is fixed at 200. Last, the same
# group read through the daemon's reply path, warm: parse, route to both
# shards of a 150k-row KV tenant, plan, Run and render into one reused
# queryReply, in ns per reply and per answered row.
bench-query:
	$(GO) test -bench 'BenchmarkSelect|BenchmarkStoreQuery' -benchmem -run '^$$' .
	$(GO) test -bench 'BenchmarkPlanRunStrided' -benchtime 200x -run '^$$' ./internal/query
	$(GO) test -bench 'BenchmarkServeGroupReply' -benchtime 10000x -run '^$$' ./internal/serve

# Short-mode query smoke: the differential fuzz (both engines vs the
# per-tuple EvalBrute oracle, `!` cells and shared marks included), the
# null-aware join differentials, the plan-time In dedupe regression,
# SelectAll against the scan on the two employee batteries, Plan.Run against
# the scan at its 64-row block edges, one reused Result against a fresh
# scan across plan shapes and delta mutations, the rows Run decides with
# less work (constants only: no guard, no probed conjunct) against the
# scan and EvalBrute across delta mutations, a probe of a group a
# delete left out of order, the planner a reused Result keeps holding no
# predicate or index between calls, probe sizes equal to what the probes
# gather on a Zipf-skewed EMP instance (a hot D = d and CT = c gathers
# one probe, D = d and E = e one candidate through the cached {D,E}
# index) against the scan across delta mutations, the store's Maybe->Sure
# refinement on its live relation, A = B reads (alone, beside a ¬, as an
# ∨ arm) building no index on a relation or a sharded store, and the
# explain goldens. (The store's
# planner-vs-scan agreement under writes rides in smoke-store, smoke-txn
# and smoke-shard: the exercisers' per-step read battery.)
smoke-query:
	$(GO) test -short -run 'TestSelectDifferential|TestSelectAllDifferential|TestSelectJoined|TestInDedupeAtPlanTime|TestRunBlockBoundaries|TestSelectIntoReusedResult|TestRunSkipsOnlyDecidedRows|TestProbeSortsOutOfOrderGroup|TestSelectIntoReleasesThePlan|TestPlanSizesProbedGroup' ./internal/query
	$(GO) test -short -run 'TestStoreQueryRefinement|TestEqAttrReadBuildsNoIndex' ./internal/store
	$(GO) test -short -run 'TestQueryExplain' ./cmd/fdquery

# The analysis kernels' allocation pins, outside -race (they skip under
# it): a congruence pass allocates per FD, not per tuple, a whole chase
# adds < 1 allocation per 10 rows from n=200 to n=2000, and its result
# allocates cells for the rows it changed, not for all n; Evaluate
# refuses an over-large completion set before it copies a row (the same
# at n=200 as at n=2000); attr = c on a null over a 16+-value domain
# allocates nothing, and neither does SelectInto into a reused Result for
# an Eq, an ∧, an In or a two-arm ∨; a relio Parse adds < 0.01
# allocations per row from n=200 to n=2,000 and makes at most 150 for a
# 2,500-row file; an index build and the strong level-1 partition read
# off it allocate per group (the same at n=2000 as at n=20000), a
# one-attribute build over 20,000 distinct values allocates no key per
# group, and an index probe, an append into a group with room or a row
# opening a new one-attribute group allocates nothing;
# TEST-FDs' two deciders build no index after CheckAll and, on cached
# indexes, allocate per FD (the same at n=2000 as at n=20000); a domain's
# Contains and Canonical allocate nothing, and every write path stores
# the domain's own string for a constant, not the caller's copy; a
# daemon query reply allocates at most 8 times for a point read and 12
# for a 300- or 600-row answer, and the 600-row answer at most 1 KB more
# than the 300-row one (the connection's Result carries the planner and
# the answer's index lists; Plan.Run's candidate block stays on the stack),
# and a predicate of 20,000 arms grows the scratch past the 1 MiB the
# connection drops; a request line's decode allocates at most once for a
# query and 4 times for a 64-op txn (the line's one string), a 64-row
# sharded write-set commits in at most 500 allocations and 64 KB (no
# per-commit map), every constant stored through the daemon's handle is
# its domain's string, and relio's Write allocates the same for 200 rows
# as for 2,500 and hands its writer whole blocks.
smoke-allocs:
	$(GO) test -run 'TestCongruencePassAllocsPerFD|TestRunAllocsPerRow|TestResultAllocatesChangedRows|TestEvaluateRefusesBeforeCopying|TestEqOnNullAllocs|TestSelectIntoAllocs|TestIndexKernelAllocs|TestLevelOneFromIndexAllocs|TestDecidersReuseIndexes|TestBucketAllocs|TestDomainProbeAllocs|TestStoredConstantsShareDomainStrings|TestParseAllocsIndependentOfRows|TestServeQueryReplyAllocs|TestQueryReplyTrimDropsLargePlan|TestServeRequestDecodeAllocs|TestShardedCommitAllocs|TestWriteInBlocks' ./internal/chase ./internal/eval ./internal/query ./internal/relation ./internal/partition ./internal/testfds ./internal/schema ./internal/relio ./internal/store ./internal/serve

# Per-kernel time and allocs/op for the analysis path (relio parse, chase,
# CheckAll, TEST-FDs, Evaluate, selection, index build, discovery),
# quotable without a bench/ run.
bench-analysis:
	$(GO) test -bench 'RelioParse|Chase_Congruence|CheckAll|TestFDs_|Evaluate_|Select$$|IndexBuild|Discover' -benchmem -run '^$$' .

# Short-mode durability smoke: the crash-point exerciser (kill at every
# record boundary + torn tails, reopen, compare to the oracle prefix)
# and, under -race, the concurrent txn history with crash/reopen ops
# plus the handle contract (memory vs durable surface, one record per
# commit, Close against an in-flight Checkpoint).
smoke-wal:
	$(GO) test -short -run 'TestCrashPointExerciser|TestSaveLoadEqualsCheckpointRecovery' ./internal/store
	$(GO) test -race -short -run 'TestDurableConcurrentHistoryWithCrashes|TestHandleDurabilitySurface|TestOneRecordPerCommit|TestCloseDuringCheckpoint' ./internal/store

# Short-mode fault-injection smoke under the race detector: the
# fault-at-every-I/O-call sweep (strided), a reduced randomized
# multi-fault storm, the recovery-path sweep, and the degraded-mode /
# transient-retry contracts — plus the iox injector's own tests.
smoke-faults:
	$(GO) test -race -short -run 'TestFaultAtEveryIOCall|TestRandomizedFaultSchedules|TestReopenFaultSweep|TestStrayTmpPruned|TestDegraded|TestTransientRetryHeals|TestConcurrentHealthAndRecover' ./internal/store
	$(GO) test -race -short ./internal/iox

# Short-mode sharding smoke under the race detector: the sharded history
# exerciser (lockstep vs the unsharded oracle, verdict classes and state),
# the 2PC atomicity stress (snapshotAll cuts), the routing/txn units, the
# commit's sparse slot simulation against the dense table, and the 2PC
# discard leaving no trace on the healthy shard.
smoke-shard:
	$(GO) test -race -short -run 'TestSharded' ./internal/store

# Short-mode daemon smoke under the race detector: boot fdserve, hit it
# with concurrent authenticated clients over the wire (cross-shard txns,
# auth gating, tenant isolation, protocol abuse), restart a durable
# tenant, shut down; plus the CLI wrapper's flag handling.
smoke-serve:
	$(GO) test -race -short -run 'TestServe|TestLoadConfigErrors' ./internal/serve
	$(GO) test -race -short -run 'TestRunFlagErrors' ./cmd/fdserve

# Seed-corpus fuzz smoke: the relio parser, the predicate parser, the
# daemon's request edge (FuzzServeRequest: any one line gets exactly one
# reply, and a refused one changes nothing; FuzzRequestDecodeMatchesEncodingJSON:
# the connection's decoder fills what encoding/json would, and leaves it
# every line it declines), its appended query reply
# (byte-identical to encoding/json's), an IntDomain's computed membership
# (FuzzIntDomain: the same answers as a NewDomain over its values) and the
# WAL record decoder must survive their corpora (use `go test -fuzz`
# locally for open-ended exploration).
smoke-fuzz:
	$(GO) test -short -run 'Fuzz' ./internal/relio ./internal/query ./internal/serve ./internal/schema
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

# The ceilings `loc-check` holds: LOC_MAX on `make loc`'s total, and
# CORE_LOC_MAX on internal/store + internal/query + internal/chase (the
# ROADMAP's second bar). Each is set by the last PR that shrank it to its
# own result: a PR that lowers a sum lowers its ceiling with it, and one
# that has to raise one says why in CHANGES.md.
LOC_MAX = 18169
CORE_LOC_MAX = 6737

# The exported surface as `go doc -all` prints it — internal/store's
# struct types and funcs + methods, and the root fdnull facade's exported
# identifiers (funcs, types, consts, vars) — so "N store types with M
# methods" and "K public names" are numbers a PR quotes instead of
# recounting. `surface-check` holds the last two under the ceilings
# below, by LOC_MAX's rule: the PR that lowers a count lowers its ceiling,
# and one that has to raise one says why in CHANGES.md.
STORE_SURFACE_MAX = 83
FACADE_SURFACE_MAX = 154

surface:
	@$(GO) doc -all ./internal/store | awk '/^type [A-Za-z]+ struct/ { s++ } /^ *func / { f++ } \
		END { printf "internal/store: %d exported struct types, %d exported funcs/methods\n", s, f }'
	@$(GO) doc -all . | awk '/^(func|type|var|const) [A-Z]/ { n++ } /^\t[A-Z][A-Za-z0-9_]* +=/ { n++ } \
		END { printf "fdnull: %d exported identifiers\n", n }'

surface-check:
	@set -- $$($(MAKE) -s surface | awk '{ print $$(NF-2) }'); \
	if [ "$$1" -gt $(STORE_SURFACE_MAX) ]; then \
		echo "make surface: internal/store exports $$1 funcs/methods, over STORE_SURFACE_MAX = $(STORE_SURFACE_MAX)"; exit 1; fi; \
	if [ "$$2" -gt $(FACADE_SURFACE_MAX) ]; then \
		echo "make surface: fdnull exports $$2 identifiers, over FACADE_SURFACE_MAX = $(FACADE_SURFACE_MAX)"; exit 1; fi; \
	echo "make surface: internal/store $$1 funcs/methods (STORE_SURFACE_MAX = $(STORE_SURFACE_MAX)), fdnull $$2 identifiers (FACADE_SURFACE_MAX = $(FACADE_SURFACE_MAX))"

loc-check:
	@set -- $$($(MAKE) -s loc | awk '$$2 == "total" { t = $$1 } \
		$$2 ~ /^\.\/internal\/(store|query|chase)$$/ { c += $$1 } END { print t, c }'); \
	if [ "$$1" -gt $(LOC_MAX) ]; then \
		echo "make loc: $$1 non-test lines, over LOC_MAX = $(LOC_MAX)"; exit 1; fi; \
	if [ "$$2" -gt $(CORE_LOC_MAX) ]; then \
		echo "make loc: store + query + chase $$2 non-test lines, over CORE_LOC_MAX = $(CORE_LOC_MAX)"; exit 1; fi; \
	echo "make loc: $$1 non-test lines (LOC_MAX = $(LOC_MAX)), store + query + chase $$2 (CORE_LOC_MAX = $(CORE_LOC_MAX))"

# An oracle is not a setting: the ground-truth engines — the eval,
# discover and query EngineNaive selectors, store.NewRecheckOracle and
# chase.RunPairwise — may be named in the package that owns them, in
# tests and in bench/ — nowhere a user-facing path could select one.
# The one exception is RunPairwise in cmd/fdbench: the paper's Figure 5
# rule-order experiment (E5) and the chase complexity sweep (E10) run it.
# Each match is checked on its own, qualified (`eval.EngineNaive`) or not.
oracle-check:
	@out=$$(grep -rnoE '([A-Za-z_][A-Za-z0-9_]*\.)?(NewRecheckOracle|RunPairwise|EngineNaive)' --include='*.go' . | \
		awk -F: '$$1 ~ /^\.\/bench\// || $$1 ~ /_test\.go$$/ { next } \
		{ name = $$3; pkg = ""; if (i = index(name, ".")) { pkg = substr(name, 1, i - 1); name = substr(name, i + 1) } \
		  dir = $$1; sub("^\\./", "", dir); sub("/[^/]*$$", "", dir); if (pkg == "") { pkg = dir; sub(".*/", "", pkg) } \
		  own = name == "NewRecheckOracle" ? "store" : name == "RunPairwise" ? "chase" : "eval|discover|query" } \
		pkg ~ "^(" own ")$$" && dir == "internal/" pkg { next } \
		name == "RunPairwise" && pkg == "chase" && dir == "cmd/fdbench" { next } \
		{ print }'); \
	if [ -n "$$out" ]; then echo "oracle named outside its own package:"; echo "$$out"; exit 1; fi; \
	echo "oracle-check: no oracle named outside its own package, tests and bench/, but chase.RunPairwise in cmd/fdbench"

lint: fmt vet errsweep oracle-check loc-check surface-check

fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

clean:
	$(GO) clean ./...

package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"

	"fdnull/internal/iox"
	"fdnull/internal/query"
	"fdnull/internal/relation"
	"fdnull/internal/relio"
	"fdnull/internal/schema"
	"fdnull/internal/store"
)

// The traced ladder. End-to-end numbers are taken with tracing off; this
// separate run replays the start of each workload's seeded stream,
// recording spans in memory around the calls into each layer — never
// inside the program:
//
//   - root serve.<op> around each TCP round trip to the live daemon;
//   - root store.<op> around the same op applied directly to a twin
//     store.Sharded with the same preload, with query.parse and
//     store.select children for reads and iox.write / iox.sync children
//     from the timing filesystem under durable commits;
//   - root pass with one child per stage for batch-analyze.
//
// Every per-layer metric is a median (or a count ratio) over these
// spans. All four legs run whichever workload is named, so the ladder
// is one instrument with one set of rungs; the named workload is the one
// whose replay also runs untraced, which gives the runtime.* counters,
// trace.overhead_share and budget.gap_share.
type ladder struct {
	o    options
	rec  *recorder
	vals map[string]float64
}

func runLadder(o options) (*result, error) {
	ld := &ladder{o: o, rec: newRecorder(), vals: make(map[string]float64)}
	defer o.removeWork()
	attempted := 0
	for _, leg := range []func() (int, error){ld.kvReadLeg, ld.kvDurableLeg, ld.empLeg, ld.batchLeg} {
		n, err := leg()
		if err != nil {
			return nil, err
		}
		attempted += n
	}
	res := &result{Correct: true, Attempted: attempted, Metrics: map[string]metricValue{}}
	for _, d := range perLayerMetrics {
		v, ok := ld.vals[d.Name]
		if !ok {
			return nil, fmt.Errorf("the ladder produced no value for %s", d.Name)
		}
		res.set(perLayerMetrics, d.Name, v)
	}
	res.notes = append(res.notes, fmt.Sprintf("traced ladder, %d spans, %d ops; every traced reply and digest was the expected one", len(ld.rec.spans), attempted))
	if o.traceOut != "" {
		f, err := os.Create(o.traceOut)
		if err != nil {
			return nil, err
		}
		if err := ld.rec.write(f); err != nil {
			f.Close()
			return nil, err
		}
		if err := f.Close(); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// ---- span bookkeeping ----

func sum(ns []int64) float64 {
	var t int64
	for _, d := range ns {
		t += d
	}
	return float64(t)
}

func (ld *ladder) p50(name string, from, to int, span string) {
	ld.vals[name] = medianUS(ld.rec.sample(from, to, span))
}

func (ld *ladder) p50ms(name string, from, to int, span string) {
	ld.vals[name] = medianUS(ld.rec.sample(from, to, span)) / 1e3
}

// ---- process counters ----

type procCounters struct {
	cpu            time.Duration
	mallocs, bytes uint64
	gcCycles       uint32
}

func readCounters() procCounters {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF with a valid pointer
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return procCounters{
		cpu:     time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		mallocs: ms.Mallocs, bytes: ms.TotalAlloc, gcCycles: ms.NumGC,
	}
}

// runtimeMetrics charges the process counters spent between before and
// now to ops operations of the named workload's untraced replay.
func (ld *ladder) runtimeMetrics(before procCounters, ops int) {
	now := readCounters()
	n := float64(ops)
	ld.vals["runtime.cpu_us_per_op"] = float64((now.cpu - before.cpu).Microseconds()) / n
	ld.vals["runtime.allocs_per_op"] = float64(now.mallocs-before.mallocs) / n
	ld.vals["runtime.alloc_kb_per_op"] = float64(now.bytes-before.bytes) / 1024 / n
	ld.vals["runtime.gc_cycles"] = float64(now.gcCycles - before.gcCycles)
}

// ---- replaying a stream ----

type doer interface {
	do(o *op) (bool, error)
}

// tracedClient wraps a wire client so each round trip is a root
// serve.<class> span.
type tracedClient struct {
	cl  *client
	rec *recorder
}

func (t tracedClient) do(o *op) (bool, error) {
	id := t.rec.begin("serve." + classNames[o.class])
	ok, err := t.cl.do(o)
	t.rec.end(id)
	return ok, err
}

// replay runs the next n ops of gen through d and returns the wall time;
// any unexpected outcome is an error.
func replay(gen generator, n int, d doer) (time.Duration, error) {
	var o op
	start := time.Now()
	for i := 0; i < n; i++ {
		gen.next(&o)
		ok, err := d.do(&o)
		if err != nil {
			return 0, fmt.Errorf("op %d (%s): %w", i, classNames[o.class], err)
		}
		if !ok {
			return 0, fmt.Errorf("op %d (%s): unexpected outcome", i, classNames[o.class])
		}
	}
	return time.Since(start), nil
}

// wireLeg replays the stream against the live daemon: untraced
// first when this is the named workload (runtime counters, and the
// baseline for the tracing overhead), then traced. It returns the span
// range of the traced pass.
func (ld *ladder) wireLeg(in *instance, named bool) (from, to int, err error) {
	n := in.spec.traceOps
	cl := in.cl
	var untraced time.Duration
	if named {
		before := readCounters()
		if untraced, err = replay(in.gen, n, cl); err != nil {
			return 0, 0, fmt.Errorf("untraced wire replay: %w", err)
		}
		ld.runtimeMetrics(before, n)
	}
	from = len(ld.rec.spans)
	traced, err := replay(in.gen, n, tracedClient{cl, ld.rec})
	if err != nil {
		return 0, 0, fmt.Errorf("traced wire replay: %w", err)
	}
	to = len(ld.rec.spans)
	if named {
		ld.vals["trace.overhead_share"] = 1 - untraced.Seconds()/traced.Seconds()
	}
	return from, to, nil
}

// pings measures the protocol floor: the smallest request the daemon
// answers.
func (ld *ladder) pings(cl *client, n int) (float64, error) {
	from := len(ld.rec.spans)
	for i := 0; i < n; i++ {
		id := ld.rec.begin("serve.ping")
		reply, err := cl.ping()
		ld.rec.end(id)
		if err != nil {
			return 0, err
		}
		if !isOK(reply) {
			return 0, fmt.Errorf("ping refused: %s", reply)
		}
	}
	return medianUS(ld.rec.sample(from, len(ld.rec.spans), "serve.ping")), nil
}

// budget records the additivity check for the named workload: how far
// the protocol floor plus the direct store call is from the wire round
// trip, as a share of the round trip.
func (ld *ladder) budget(ping float64, wireFrom, wireTo, directFrom, directTo int) {
	wire := medianUS(ld.rec.roots(wireFrom, wireTo))
	direct := medianUS(ld.rec.roots(directFrom, directTo))
	ld.vals["budget.gap_share"] = math.Abs(ping+direct-wire) / wire
}

// ---- twins ----

func preloadSharded(st *store.Sharded, arity int, rows func(yield func(*row))) error {
	var err error
	tx := st.BeginTxn()
	rows(func(r *row) {
		if err != nil {
			return
		}
		if err = tx.InsertRow(rowStrings(r, arity)...); err == nil && tx.Pending() == preloadBatch {
			err = tx.Commit()
			tx = st.BeginTxn()
		}
	})
	if err == nil {
		err = tx.Commit()
	}
	return err
}

// openSharded opens a store.Sharded configured like the daemon's tenant
// (two shards, incremental maintenance): in memory when dir is empty,
// else durable under dir through fs (nil: the operating system's).
func openSharded(def tenantDef, dir string, fs iox.FS) (*store.Sharded, error) {
	s, fds, err := def.buildScheme()
	if err != nil {
		return nil, err
	}
	key, err := s.Set(def.key)
	if err != nil {
		return nil, err
	}
	opts := store.ShardedOptions{Shards: 2, Key: key}
	if dir == "" {
		return store.NewSharded(s, fds, opts)
	}
	return store.OpenShardedDurable(dir, s, fds, opts, store.DurableOptions{FS: fs})
}

// newTwin opens such a store and gives it the tenant's preload.
func newTwin(spec *daemonSpec, dir string, fs iox.FS) (*store.Sharded, error) {
	st, err := openSharded(spec.tenant, dir, fs)
	if err != nil {
		return nil, err
	}
	if err := preloadSharded(st, len(spec.tenant.attrs), spec.preload); err != nil {
		st.Close()
		return nil, fmt.Errorf("twin preload: %w", err)
	}
	return st, nil
}

// ---- leg 1: kv-read ----

func (ld *ladder) kvReadLeg() (int, error) {
	named := ld.o.workload == "kv-read"
	spec := kvReadSpec(ld.o.seed, ld.o.scale)
	in, err := setUp(spec, filepath.Join(ld.o.workDir(), "kv-read"))
	if err != nil {
		return 0, fmt.Errorf("kv-read leg: %w", err)
	}
	defer in.tearDown()
	req0, resp0 := in.cl.reqBytes, in.cl.respBytes
	wFrom, wTo, err := ld.wireLeg(in, named)
	if err != nil {
		return 0, fmt.Errorf("kv-read leg: %w", err)
	}
	sent := float64(spec.traceOps)
	if named {
		sent *= 2 // the untraced pass went over the same connection
	}
	ld.vals["serve.req_bytes_per_op"] = float64(in.cl.reqBytes-req0) / sent
	ld.vals["serve.resp_bytes_per_op"] = float64(in.cl.respBytes-resp0) / sent
	ping, err := ld.pings(in.cl, 2000)
	if err != nil {
		return 0, err
	}
	ld.vals["serve.ping_p50_us"] = ping
	ld.p50("serve.query_p50_us", wFrom, wTo, "serve.query")

	// The twin's resident size per row: heap growth across its preload.
	heapBefore := liveHeapMB(0)
	twin, err := newTwin(spec, "", nil)
	if err != nil {
		return 0, err
	}
	ld.vals["store.heap_bytes_per_row"] = (liveHeapMB(0) - heapBefore) * (1 << 20) / float64(twin.Len())

	dFrom := len(ld.rec.spans)
	if _, err := replay(spec.newGen(), spec.traceOps, newShardedTarget(twin, spec.tenant, ld.rec)); err != nil {
		return 0, fmt.Errorf("kv-read direct replay: %w", err)
	}
	dTo := len(ld.rec.spans)
	ld.p50("query.parse_p50_us", dFrom, dTo, "query.parse")
	ld.p50("store.select_p50_us", dFrom, dTo, "store.select")
	wire := medianUS(ld.rec.sample(wFrom, wTo, "serve.query"))
	ld.vals["serve.wire_share"] = 1 - medianUS(ld.rec.sample(dFrom, dTo, "store.query"))/wire
	if named {
		ld.budget(ping, wFrom, wTo, dFrom, dTo)
	}

	// query alone: the planner and the probe over a relation that keeps
	// its indexes, no store, no cache.
	snap := twin.Snapshot()
	gen := spec.newGen()
	var o op
	var where []byte
	evaluated, results := 0, 0
	qFrom := len(ld.rec.spans)
	for i := 0; i < scaled(2000, ld.o.scale, 50); i++ {
		gen.next(&o)
		where = o.appendWhere(where[:0], spec.tenant.layout())
		p, err := query.ParsePred(snap.Scheme(), string(where))
		if err != nil {
			return 0, err
		}
		id := ld.rec.begin("query.select")
		res, ex := query.SelectExplain(snap, p, query.Options{})
		ld.rec.end(id)
		evaluated += ex.Evaluated
		results += len(res.Sure) + len(res.Maybe)
	}
	ld.p50("query.select_p50_us", qFrom, len(ld.rec.spans), "query.select")
	if results == 0 {
		return 0, fmt.Errorf("kv-read query probe matched nothing")
	}
	ld.vals["query.candidates_per_result"] = float64(evaluated) / float64(results)

	// relation: a cold index build at n, and a delete right after a
	// snapshot was taken, which pays the copy-on-write copy of the outer
	// slice (an insert would not: appends never disturb a view).
	keySet := schema.NewAttrSet(0)
	var builds, deletes []float64
	for i := 0; i < 5; i++ {
		start := time.Now()
		idx := relation.BuildIndex(snap, keySet)
		builds = append(builds, float64(time.Since(start).Microseconds())/1e3)
		runtime.KeepAlive(idx)
	}
	ld.vals["relation.index_build_ms"] = medianF(builds)
	for i := 0; i < 21; i++ {
		last := snap.Tuple(snap.Len() - 1).Clone()
		view := snap.View()
		start := time.Now()
		snap.DeleteDelta(snap.Len() - 1)
		deletes = append(deletes, float64(time.Since(start).Nanoseconds())/1e3)
		runtime.KeepAlive(view)
		if _, err := snap.InsertDelta(last); err != nil {
			return 0, fmt.Errorf("re-insert after timed delete: %w", err)
		}
	}
	ld.vals["relation.delete_after_view_us"] = medianF(deletes)
	return 2*spec.traceOps + 2000, nil
}

// ---- leg 2: kv-durable ----

func (ld *ladder) kvDurableLeg() (int, error) {
	named := ld.o.workload == "kv-durable"
	spec := kvDurableSpec(ld.o.seed, ld.o.scale)
	in, err := setUp(spec, filepath.Join(ld.o.workDir(), "kv-durable"))
	if err != nil {
		return 0, fmt.Errorf("kv-durable leg: %w", err)
	}
	defer in.tearDown()
	wFrom, wTo, err := ld.wireLeg(in, named)
	if err != nil {
		return 0, fmt.Errorf("kv-durable leg: %w", err)
	}
	for _, class := range []string{"insert", "update", "delete", "txn"} {
		ld.p50("serve."+class+"_p50_us", wFrom, wTo, "serve."+class)
	}

	twinDir := filepath.Join(ld.o.workDir(), "kv-durable-twin")
	tfs := newTimingFS(iox.OS, ld.rec)
	twin, err := newTwin(spec, twinDir, tfs)
	if err != nil {
		return 0, fmt.Errorf("kv-durable twin: %w", err)
	}
	defer twin.Close()
	tfs.reset()
	before := readCounters()
	dFrom := len(ld.rec.spans)
	wall, err := replay(spec.newGen(), spec.traceOps, newShardedTarget(twin, spec.tenant, ld.rec))
	if err != nil {
		return 0, fmt.Errorf("kv-durable direct replay: %w", err)
	}
	dTo := len(ld.rec.spans)
	after := readCounters()
	for _, class := range []string{"insert", "update", "delete", "txn"} {
		ld.p50("store."+class+"_p50_us", dFrom, dTo, "store."+class)
	}
	commits := float64(spec.traceOps)
	writes, syncs, _ := tfs.snapshot()
	ld.vals["store.alloc_kb_per_commit"] = float64(after.bytes-before.bytes) / 1024 / commits
	ld.vals["store.wal_bytes_per_commit"] = float64(writes.bytes) / commits
	ld.vals["store.fsyncs_per_commit"] = float64(syncs.calls) / commits
	ld.vals["iox.writes_per_commit"] = float64(writes.calls) / commits
	ld.vals["iox.write_p50_us"] = medianUS(writes.ns)
	ld.vals["iox.sync_p50_us"] = medianUS(syncs.ns)
	ld.vals["iox.sync_busy_share"] = float64(syncs.total()) / float64(wall)
	if named {
		ping, err := ld.pings(in.cl, 2000)
		if err != nil {
			return 0, err
		}
		ld.budget(ping, wFrom, wTo, dFrom, dTo)
	}

	// Recovery: reopen a copy of the twin's directories taken while it is
	// still open — nothing closed, nothing checkpointed — and compare.
	copyDir := twinDir + "-crash"
	if err := crashCopy(twinDir, copyDir); err != nil {
		return 0, fmt.Errorf("crash copy: %w", err)
	}
	start := time.Now()
	reopened, err := openSharded(spec.tenant, copyDir, nil)
	if err != nil {
		return 0, fmt.Errorf("reopen crash copy: %w", err)
	}
	defer reopened.Close()
	ld.vals["store.recover_ms"] = float64(time.Since(start).Microseconds()) / 1e3
	replayed := 0
	for _, h := range reopened.ShardHealth() {
		replayed += int(h.NextSeq - h.CheckpointSeq - 1)
	}
	ld.vals["store.log_records_replayed"] = float64(replayed)
	if d := diffRows(canonicalRows(relationRows(reopened.Snapshot())), canonicalRows(relationRows(twin.Snapshot()))); d != "" {
		return 0, fmt.Errorf("recovered twin differs from the live one: %s", d)
	}
	return 2 * spec.traceOps, nil
}

func relationRows(r *relation.Relation) [][]string {
	out := make([][]string, 0, r.Len())
	for _, t := range r.Tuples() {
		out = append(out, tupleStrings(t))
	}
	return out
}

// ---- leg 3: emp-null-mixed ----

func (ld *ladder) empLeg() (int, error) {
	named := ld.o.workload == "emp-null-mixed"
	spec := empSpec(ld.o.seed, ld.o.scale)
	in, err := setUp(spec, filepath.Join(ld.o.workDir(), "emp"))
	if err != nil {
		return 0, fmt.Errorf("emp leg: %w", err)
	}
	defer in.tearDown()
	wFrom, wTo, err := ld.wireLeg(in, named)
	if err != nil {
		return 0, fmt.Errorf("emp leg: %w", err)
	}
	ld.p50("serve.reject_p50_us", wFrom, wTo, "serve.reject")

	twin, err := newTwin(spec, "", nil)
	if err != nil {
		return 0, fmt.Errorf("emp twin: %w", err)
	}
	dFrom := len(ld.rec.spans)
	if _, err := replay(spec.newGen(), spec.traceOps, newShardedTarget(twin, spec.tenant, ld.rec)); err != nil {
		return 0, fmt.Errorf("emp direct replay: %w", err)
	}
	dTo := len(ld.rec.spans)
	ld.p50("store.null_insert_p50_us", dFrom, dTo, "store.null_insert")
	ld.p50("store.resolve_update_p50_us", dFrom, dTo, "store.resolve_update")
	ld.p50("store.reject_p50_us", dFrom, dTo, "store.reject")

	// Reads that directly follow an accepted write: they find the shard's
	// version changed and its snapshot indexes gone.
	var firstReads []int64
	afterWrite := false
	for _, s := range ld.rec.spans[dFrom:dTo] {
		if s.Parent >= 0 {
			continue
		}
		read := strings.HasSuffix(s.Name, "query") || strings.HasSuffix(s.Name, "resolve_read")
		if read && afterWrite {
			firstReads = append(firstReads, s.End-s.Start)
		}
		afterWrite = !read && s.Name != "store.reject"
	}
	ld.vals["store.first_read_after_write_p50_us"] = medianUS(firstReads)
	var hits, misses uint64
	for i := 0; i < twin.NumShards(); i++ {
		h, m := twin.Shard(i).QueryCacheStats()
		hits, misses = hits+h, misses+m
	}
	ld.vals["store.qcache_hit_share"] = float64(hits) / float64(hits+misses)
	if named {
		ping, err := ld.pings(in.cl, 2000)
		if err != nil {
			return 0, err
		}
		ld.budget(ping, wFrom, wTo, dFrom, dTo)
	}
	return 2 * spec.traceOps, nil
}

// ---- leg 4: batch-analyze ----

func (ld *ladder) batchLeg() (int, error) {
	named := ld.o.workload == "batch-analyze"
	in, err := setUpBatch(ld.o.seed, ld.o.scale)
	if err != nil {
		return 0, fmt.Errorf("batch leg: %w", err)
	}
	const reps = 3
	ops := 0
	var untraced time.Duration
	if named {
		// The stream's first block, untraced then traced: the runtime
		// counters, and the tracing overhead on the library path.
		n := len(in.stream.block)
		before := readCounters()
		start := time.Now()
		for i := 0; i < n; i++ {
			cls, file := in.stream.next()
			if err := in.op(cls, file, nil); err != nil {
				return 0, err
			}
		}
		untraced = time.Since(start)
		ld.runtimeMetrics(before, n)
		in.stream = newBatchStream(ld.o.seed)
		from := len(ld.rec.spans)
		start = time.Now()
		for i := 0; i < n; i++ {
			cls, file := in.stream.next()
			if err := in.op(cls, file, ld.rec); err != nil {
				return 0, err
			}
		}
		ld.vals["trace.overhead_share"] = 1 - untraced.Seconds()/time.Since(start).Seconds()
		// No wire here: the budget is a pass's self time, what it spends
		// outside its stages.
		to := len(ld.rec.spans)
		ld.vals["budget.gap_share"] = sum(ld.rec.selfTimes(from, to, "pass")) / sum(ld.rec.sample(from, to, "pass"))
		ops += 2 * n
	}

	// Stage by stage at the largest size; the two largest sizes give the
	// chase's scaling exponent.
	chaseMS := func(cls int) (float64, int, int, error) {
		from := len(ld.rec.spans)
		for rep := 0; rep < reps; rep++ {
			for file := range in.corpus.files[cls] {
				if err := in.op(cls, file, ld.rec); err != nil {
					return 0, 0, 0, err
				}
				ops++
			}
		}
		to := len(ld.rec.spans)
		return medianUS(ld.rec.sample(from, to, "chase.run")) / 1e3, from, to, nil
	}
	mid, _, _, err := chaseMS(2)
	if err != nil {
		return 0, err
	}
	big, from, to, err := chaseMS(3)
	if err != nil {
		return 0, err
	}
	ld.vals["chase.run_ms"] = big
	ld.vals["chase.scaling_exp"] = 0 // at a -scale so small that both classes sit on the size floor
	if nBig, nMid := in.corpus.files[3][0].n, in.corpus.files[2][0].n; nBig > nMid {
		ld.vals["chase.scaling_exp"] = math.Log(big/mid) / math.Log(float64(nBig)/float64(nMid))
	}
	ld.p50ms("relio.parse_ms", from, to, "relio.parse")
	ld.p50ms("testfds.weak_ms", from, to, "testfds.weak")
	ld.p50ms("testfds.strong_ms", from, to, "testfds.strong")
	ld.p50ms("discover.run_ms", from, to, "discover.run")
	ld.p50ms("query.selectall_ms", from, to, "query.selectall")

	// Per-tuple verdicts exist only for the complete file (index 0).
	cFrom := len(ld.rec.spans)
	for rep := 0; rep < reps; rep++ {
		if err := in.op(3, 0, ld.rec); err != nil {
			return 0, err
		}
		ops++
	}
	ld.p50ms("eval.checkall_ms", cFrom, len(ld.rec.spans), "eval.checkall")

	var writes []float64
	for rep := 0; rep < reps; rep++ {
		for i := range in.corpus.files[3] {
			f := &in.corpus.files[3][i]
			var buf bytes.Buffer
			start := time.Now()
			if err := relio.Write(&buf, f.last.file); err != nil {
				return 0, err
			}
			writes = append(writes, float64(time.Since(start).Microseconds())/1e3)
		}
	}
	ld.vals["relio.write_ms"] = medianF(writes)
	return ops, nil
}

package store

// fault_test.go is the disk-fault exerciser: where crash_test.go kills
// the PROCESS at every record boundary, this file fails the DISK at
// every I/O call. A deterministic workload first runs against a
// counting iox.FaultFS to enumerate its I/O calls; then, for every call
// index, a fresh run is repeated with a fault injected exactly there
// (cycling errno and manifestation: EIO, ENOSPC, EINTR, outright
// failure, short write, failed fsync with page drop), plus dozens of
// randomized multi-fault schedules. An in-memory oracle applies each
// operation in lockstep IF AND ONLY IF the durable handle applied it in
// memory, so after every schedule the exerciser can prove:
//
//   - a degraded handle keeps serving reads identical to the oracle and
//     rejects every mutation with ErrDegraded, without touching memory;
//   - a crash-copy of the directory reopens to EXACTLY the oracle's
//     state after some prefix of the applied mutations — never a torn
//     or reordered state — and that prefix covers at least every seq
//     the handle had acknowledged as synced;
//   - once the filesystem heals, Recover() restores durability: the
//     handle accepts writes again and a final reopen sees everything.

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"syscall"
	"testing"
	"time"

	"fdnull/internal/iox"
	"fdnull/internal/relation"
	"fdnull/internal/schema"
	"fdnull/internal/value"
)

// faultOp is one workload step: mut ops count toward the log seq and
// run on the durable handle and on the oracle (guarded in memory) alike;
// dur ops (Sync/Checkpoint) touch only the durable handle.
type faultOp struct {
	name string
	mut  func(m *Store) error
	dur  func(d *Store) error
}

// faultWorkload is the deterministic script every fault schedule runs.
// Every step succeeds on a fault-free filesystem (the enumeration pass
// asserts it), so any error during a fault run is injected, never
// semantic.
func faultWorkload() []faultOp {
	row := func(cells ...string) faultOp {
		return faultOp{name: "insert " + cells[0], mut: func(m *Store) error { return m.InsertRow(cells...) }}
	}
	upd := func(ti int, a schema.Attr, v string) faultOp {
		return faultOp{name: fmt.Sprintf("update %d.%d", ti, a), mut: func(m *Store) error { return m.Update(ti, a, value.NewConst(v)) }}
	}
	del := func(ti int) faultOp {
		return faultOp{name: fmt.Sprintf("delete %d", ti), mut: func(m *Store) error { return m.Delete(ti) }}
	}
	txn := func(name string, stage func(tx *Txn) error) faultOp {
		return faultOp{name: name, mut: func(m *Store) error {
			tx := m.Begin()
			if err := stage(tx); err != nil {
				tx.Rollback()
				return err
			}
			return tx.Commit()
		}}
	}
	return []faultOp{
		row("e1", "s1", "d1", "ct1"),
		row("e2", "s2", "d2", "ct2"),
		row("e3", "-", "d1", "ct1"),
		{name: "sync", dur: func(d *Store) error { return d.Sync() }},
		upd(0, 1, "s3"),
		txn("txn insert e4,e5", func(tx *Txn) error {
			if err := tx.InsertRow("e4", "s4", "d3", "ct3"); err != nil {
				return err
			}
			return tx.InsertRow("e5", "s5", "d2", "ct2")
		}),
		{name: "checkpoint", dur: func(d *Store) error { return d.Checkpoint() }},
		del(1),
		row("e6", "-", "d4", "-"),
		upd(0, 1, "s4"),
		txn("txn delete 2 + insert e7", func(tx *Txn) error {
			if err := tx.Delete(2); err != nil {
				return err
			}
			return tx.InsertRow("e7", "s7", "d1", "ct1")
		}),
		{name: "sync", dur: func(d *Store) error { return d.Sync() }},
		row("e8", "s8", "d4", "-"),
		{name: "checkpoint", dur: func(d *Store) error { return d.Checkpoint() }},
		upd(1, 1, "s9"),
		row("e9", "s9", "d2", "ct2"),
		del(0),
		row("e10", "-", "-", "-"),
	}
}

func faultDurableOpts(fs iox.FS) DurableOptions {
	ws := histSchemes()[0]
	return DurableOptions{
		Scheme:       ws.s,
		FDs:          ws.fds,
		SegmentBytes: 128, // several rotations over the workload
		GroupCommit:  2,
		FS:           fs,
		RetrySleep:   func(time.Duration) {}, // no real sleeping in tests
	}
}

// copyDirT snapshots a WAL directory so the original can keep running
// (Recover) while the copy models the post-crash disk.
func copyDirT(t *testing.T, src, dst string) {
	t.Helper()
	if err := os.MkdirAll(dst, 0o755); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// matchingPrefix finds the mutation count M whose oracle snapshot the
// store equals, searching newest-first; -1 if no prefix matches (torn
// or reordered recovery — the failure the exerciser exists to catch).
func matchingPrefix(st *Store, snaps []crashSnapshot) int {
	for m := len(snaps) - 1; m >= 0; m-- {
		if relation.Equal(st.Snapshot(), snaps[m].rel) && st.rel.NextMark() == snaps[m].mark {
			return m
		}
	}
	return -1
}

// scheduleResult summarizes one fault run for cross-run assertions.
type scheduleResult struct {
	degraded bool
	retries  uint64
	opened   bool
}

// runFaultSchedule runs the workload under one fault plan with the
// oracle in lockstep and proves every durability invariant that can be
// checked afterwards. ctx labels failures with the schedule.
func runFaultSchedule(t *testing.T, ctx string, plan map[uint64]iox.Fault) scheduleResult {
	t.Helper()
	ws := histSchemes()[0]
	base := t.TempDir()
	dir := filepath.Join(base, "wal")
	ffs := iox.NewFaultFS(iox.OS, plan)
	opts := faultDurableOpts(ffs)

	d, err := OpenDurable(dir, opts)
	if err != nil {
		// The fault hit the fresh-dir bootstrap; nothing was acknowledged,
		// so there is nothing to recover — but the error must carry the
		// taxonomy.
		if !errors.Is(err, ErrWAL) {
			t.Fatalf("%s: open error outside taxonomy: %v", ctx, err)
		}
		return scheduleResult{}
	}

	oracle, err := NewRecheckOracle(ws.s, ws.fds, relation.New(ws.s))
	if err != nil {
		t.Fatal(err)
	}
	snaps := []crashSnapshot{crashSnap(oracle)}
	for _, op := range faultWorkload() {
		if d.Health().Degraded {
			// The gate rejects everything from here on (the explicit probe
			// below proves it); stop driving the script so index-based ops
			// don't trip structural validation against the frozen state.
			break
		}
		if op.mut == nil {
			d.dur(op, t, ctx)
			continue
		}
		errD := op.mut(d)
		switch {
		case errD == nil:
			// Applied and acknowledged (the handle may still have degraded
			// as a side effect, e.g. a failed segment rotation after the
			// record went durable).
		case errors.Is(errD, ErrDegraded):
			// Rejected up front: the gate fired before any state change, so
			// the oracle must NOT apply.
			continue
		case errors.Is(errD, ErrWAL):
			// Applied in memory, durability failed: the log append runs
			// after the state change, so the oracle applies and the
			// recovered prefix may or may not include this mutation.
		default:
			t.Fatalf("%s: op %q failed outside the taxonomy: %v", ctx, op.name, errD)
		}
		if err := op.mut(oracle); err != nil {
			t.Fatalf("%s: oracle rejected %q the durable store accepted: %v", ctx, op.name, err)
		}
		snaps = append(snaps, crashSnap(oracle))
	}

	health := d.Health()
	res := scheduleResult{degraded: health.Degraded, retries: health.Retries, opened: true}
	applied := len(snaps) - 1

	if health.Degraded {
		// Invariant 1: a degraded handle serves reads frozen exactly at
		// the oracle's state and refuses mutations without touching it.
		if !relation.Equal(d.Snapshot(), snaps[applied].rel) {
			t.Fatalf("%s: degraded reads diverge from the oracle", ctx)
		}
		if err := d.InsertRow("e11", "s1", "d1", "ct1"); !errors.Is(err, ErrDegraded) {
			t.Fatalf("%s: mutation on a degraded handle returned %v, want ErrDegraded", ctx, err)
		}
		if d.Len() != snaps[applied].rel.Len() {
			t.Fatalf("%s: rejected mutation changed the in-memory state", ctx)
		}
		if !errors.Is(d.Err(), ErrWAL) {
			t.Fatalf("%s: degradation cause %v does not match ErrWAL", ctx, d.Err())
		}

		// Invariant 2: a crash-copy of the directory recovers to EXACTLY
		// some oracle prefix, covering every acknowledged-synced seq.
		crashDir := filepath.Join(base, "crash")
		copyDirT(t, dir, crashDir)
		re, err := OpenDurable(crashDir, DurableOptions{RetainSegments: true})
		if err != nil {
			t.Fatalf("%s: crash-copy reopen failed: %v", ctx, err)
		}
		m := matchingPrefix(re, snaps)
		if m < 0 {
			t.Fatalf("%s: crash-copy recovered a state matching NO oracle prefix (torn state):\n%s", ctx, re.Snapshot())
		}
		if uint64(m) < health.SyncedSeq {
			t.Fatalf("%s: crash-copy recovered prefix %d < acknowledged synced seq %d (silent loss)", ctx, m, health.SyncedSeq)
		}
		if !re.CheckWeak() {
			t.Fatalf("%s: crash-copy violates the weak invariant", ctx)
		}
		if err := re.Close(); err != nil && !errors.Is(err, ErrWAL) {
			t.Fatalf("%s: crash-copy close: %v", ctx, err)
		}

		// Invariant 3: healing the filesystem and calling Recover()
		// restores durability for the ORIGINAL handle.
		ffs.SetPlan(nil)
		if err := d.Recover(); err != nil {
			t.Fatalf("%s: Recover on a healed filesystem failed: %v", ctx, err)
		}
		if h := d.Health(); h.Degraded || h.Err != nil {
			t.Fatalf("%s: health still degraded after Recover: %+v", ctx, h)
		}
		if err := d.InsertRow("e12", "s2", "d2", "ct2"); err != nil {
			t.Fatalf("%s: insert after Recover failed: %v", ctx, err)
		}
		if err := oracle.InsertRow("e12", "s2", "d2", "ct2"); err != nil {
			t.Fatalf("%s: oracle insert after Recover: %v", ctx, err)
		}
	} else {
		// No degradation: every op was acknowledged (transient faults were
		// absorbed by retry, or the fault hit an advisory path).
		if applied != mutationCount() {
			t.Fatalf("%s: healthy run applied %d of %d mutations", ctx, applied, mutationCount())
		}
		ffs.SetPlan(nil) // a leftover fault must not hit Close/reopen
	}

	// Invariant 4: after a clean close, a reopen sees the live state
	// byte-exactly (marks and watermark included).
	if err := d.Close(); err != nil {
		t.Fatalf("%s: close after heal: %v", ctx, err)
	}
	re, err := OpenDurable(dir, DurableOptions{})
	if err != nil {
		t.Fatalf("%s: final reopen: %v", ctx, err)
	}
	defer re.Close()
	if !relation.Equal(re.Snapshot(), oracle.Snapshot()) {
		t.Fatalf("%s: final reopen diverges from the oracle:\nrecovered:\n%s\noracle:\n%s",
			ctx, re.Snapshot(), oracle.Snapshot())
	}
	if re.NextMark() != oracle.NextMark() {
		t.Fatalf("%s: final watermark %d, oracle %d", ctx, re.NextMark(), oracle.NextMark())
	}
	return res
}

// dur runs a durable-only op (Sync/Checkpoint), which may fail under
// faults — legal iff inside the taxonomy.
func (d *Store) dur(op faultOp, t *testing.T, ctx string) {
	t.Helper()
	if err := op.dur(d); err != nil && !errors.Is(err, ErrWAL) && !errors.Is(err, ErrDegraded) {
		t.Fatalf("%s: %q failed outside the taxonomy: %v", ctx, op.name, err)
	}
}

func mutationCount() int {
	n := 0
	for _, op := range faultWorkload() {
		if op.mut != nil {
			n++
		}
	}
	return n
}

// countWorkloadCalls enumerates the workload's I/O calls on a fault-free
// FaultFS, asserting the script itself is semantically clean.
func countWorkloadCalls(t *testing.T) uint64 {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "wal")
	ffs := iox.NewFaultFS(iox.OS, nil)
	d, err := OpenDurable(dir, faultDurableOpts(ffs))
	if err != nil {
		t.Fatalf("count pass: open: %v", err)
	}
	for _, op := range faultWorkload() {
		var err error
		if op.mut != nil {
			err = op.mut(d)
		} else {
			err = op.dur(d)
		}
		if err != nil {
			t.Fatalf("count pass: op %q failed on a fault-free filesystem: %v", op.name, err)
		}
	}
	if err := d.Close(); err != nil {
		t.Fatalf("count pass: close: %v", err)
	}
	return ffs.Calls()
}

// faultPalette cycles manifestations so neighbouring call indices see
// different errnos and kinds.
var faultPalette = []iox.Fault{
	{Err: syscall.EIO},
	{Kind: iox.FaultShortWrite, Err: syscall.EIO},
	{Err: syscall.ENOSPC},
	{Err: syscall.EINTR},
	{Kind: iox.FaultShortWrite, Err: syscall.ENOSPC},
}

// TestFaultAtEveryIOCall is the single-fault sweep: every I/O call the
// workload makes is failed once, in its own pristine directory.
func TestFaultAtEveryIOCall(t *testing.T) {
	calls := countWorkloadCalls(t)
	if calls < 50 {
		t.Fatalf("workload makes only %d I/O calls; the sweep would be toothless", calls)
	}
	stride := uint64(1)
	if testing.Short() {
		stride = 9 // ~1/9th of the sites, still spanning every phase
	}
	var healedByRetry int
	for i := uint64(1); i <= calls; i += stride {
		res := runFaultSchedule(t, fmt.Sprintf("fault@%d", i),
			map[uint64]iox.Fault{i: faultPalette[int(i)%len(faultPalette)]})
		if res.opened && !res.degraded && res.retries > 0 {
			healedByRetry++
		}
	}
	if !testing.Short() && healedByRetry == 0 {
		t.Fatal("no run was healed transparently by the transient-retry path; the retry plumbing is dead")
	}
}

// TestRandomizedFaultSchedules injects several faults per run at random
// call sites — the multi-fault storms a single-site sweep cannot reach
// (a retry attempt hitting a second fault, a degraded handle whose
// Recover target is also failing, torn writes on two files).
func TestRandomizedFaultSchedules(t *testing.T) {
	calls := countWorkloadCalls(t)
	runs := 60
	if testing.Short() {
		runs = 12
	}
	for run := 0; run < runs; run++ {
		rng := rand.New(rand.NewSource(0xFA17 + int64(run)))
		plan := map[uint64]iox.Fault{}
		for n := 2 + rng.Intn(3); n > 0; n-- {
			// 25% headroom past the fault-free count: faults change the call
			// trace (retries add calls), so later sites stay reachable.
			site := 1 + uint64(rng.Int63n(int64(calls+calls/4)))
			plan[site] = faultPalette[rng.Intn(len(faultPalette))]
		}
		runFaultSchedule(t, fmt.Sprintf("schedule %d %v", run, planString(plan)), plan)
	}
}

func planString(plan map[uint64]iox.Fault) string {
	s := "{"
	for site, f := range plan {
		s += fmt.Sprintf(" %d:%v", site, f.Err)
	}
	return s + " }"
}

// TestReopenFaultSweep fails every I/O call of RECOVERY itself: a
// populated directory is reopened with a fault at each call index. The
// open must either fail inside the taxonomy (and a fault-free retry of
// the same directory must then see everything — a failed open never
// destroys data), succeed degraded (reads intact, Recover heals), or
// succeed outright.
func TestReopenFaultSweep(t *testing.T) {
	// Build one pristine closed directory.
	src := filepath.Join(t.TempDir(), "wal")
	d, err := OpenDurable(src, faultDurableOpts(nil))
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range faultWorkload() {
		if op.mut != nil {
			if err := op.mut(d); err != nil {
				t.Fatal(err)
			}
		} else if err := op.dur(d); err != nil {
			t.Fatal(err)
		}
	}
	want := crashSnap(d)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	reopenOpts := func(fs iox.FS) DurableOptions {
		o := faultDurableOpts(fs)
		o.Scheme, o.FDs = nil, nil // reopen: the checkpoint is the authority
		return o
	}
	check := func(ctx string, st *Store) {
		t.Helper()
		if !relation.Equal(st.Snapshot(), want.rel) || st.NextMark() != want.mark {
			t.Fatalf("%s: recovered state diverges:\n%s", ctx, st.Snapshot())
		}
	}

	// Count pass over a copy.
	base := t.TempDir()
	countDir := filepath.Join(base, "count")
	copyDirT(t, src, countDir)
	ffs := iox.NewFaultFS(iox.OS, nil)
	re, err := OpenDurable(countDir, reopenOpts(ffs))
	if err != nil {
		t.Fatalf("count reopen: %v", err)
	}
	check("count reopen", re)
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}
	calls := ffs.Calls()

	stride := uint64(1)
	if testing.Short() {
		stride = 3
	}
	for i := uint64(1); i <= calls; i += stride {
		ctx := fmt.Sprintf("reopen fault@%d", i)
		dir := filepath.Join(base, fmt.Sprintf("r%d", i))
		copyDirT(t, src, dir)
		ffs := iox.NewFaultFS(iox.OS, map[uint64]iox.Fault{i: faultPalette[int(i)%len(faultPalette)]})
		re, err := OpenDurable(dir, reopenOpts(ffs))
		if err != nil {
			if !errors.Is(err, ErrWAL) {
				t.Fatalf("%s: open error outside taxonomy: %v", ctx, err)
			}
			// A failed open must not have destroyed anything.
			re2, err := OpenDurable(dir, reopenOpts(nil))
			if err != nil {
				t.Fatalf("%s: fault-free reopen after failed open: %v", ctx, err)
			}
			check(ctx+" (after failed open)", re2)
			re2.Close()
			continue
		}
		if re.Health().Degraded {
			check(ctx+" (degraded reads)", re)
			ffs.SetPlan(nil)
			if err := re.Recover(); err != nil {
				t.Fatalf("%s: Recover: %v", ctx, err)
			}
			if err := re.InsertRow("e11", "s1", "d1", "ct1"); err != nil {
				t.Fatalf("%s: insert after Recover: %v", ctx, err)
			}
		} else {
			check(ctx, re)
			ffs.SetPlan(nil)
		}
		if err := re.Close(); err != nil {
			t.Fatalf("%s: close: %v", ctx, err)
		}
	}
}

// TestStrayTmpPruned: a crash between writing a temp file and its
// rename leaves *.tmp garbage; reopen must prune it and recover.
func TestStrayTmpPruned(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "wal")
	d, err := OpenDurable(dir, employeeDurableOpts())
	if err != nil {
		t.Fatal(err)
	}
	if err := d.InsertRow("e1", "s1", "d1", "ct1"); err != nil {
		t.Fatal(err)
	}
	want := crashSnap(d)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{manifestName + ".tmp", ckptName(99) + ".tmp"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("torn garbage"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	re, err := OpenDurable(dir, DurableOptions{})
	if err != nil {
		t.Fatalf("reopen with stray tmp files: %v", err)
	}
	defer re.Close()
	if !relation.Equal(re.Snapshot(), want.rel) {
		t.Fatal("stray tmp files changed the recovered state")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if filepath.Ext(e.Name()) == ".tmp" {
			t.Fatalf("stray temp file %s survived the reopen", e.Name())
		}
	}
}

// TestDegradedOpenServesReads: when the state recovers but no writable
// segment can be established (here: a directory squats on the segment
// name), the open succeeds degraded instead of failing.
func TestDegradedOpenServesReads(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "wal")
	d, err := OpenDurable(dir, employeeDurableOpts())
	if err != nil {
		t.Fatal(err)
	}
	if err := d.InsertRow("e1", "s1", "d1", "ct1"); err != nil {
		t.Fatal(err)
	}
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	want := crashSnap(d)
	ckptSeq := d.wal.ckptSeq
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	// Remove every segment and block re-creation with a squatting dir.
	segs, err := listSegments(iox.OS, dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range segs {
		if err := os.Remove(filepath.Join(dir, name)); err != nil {
			t.Fatal(err)
		}
	}
	squat := filepath.Join(dir, fmt.Sprintf("wal-%020d.seg", ckptSeq+1))
	if err := os.Mkdir(squat, 0o755); err != nil {
		t.Fatal(err)
	}
	re, err := OpenDurable(dir, DurableOptions{})
	if err != nil {
		t.Fatalf("open should degrade, not fail: %v", err)
	}
	defer re.Close()
	h := re.Health()
	if !h.Degraded || h.Err == nil {
		t.Fatalf("health after blocked open: %+v", h)
	}
	if !relation.Equal(re.Snapshot(), want.rel) {
		t.Fatal("degraded open lost state")
	}
	if err := re.InsertRow("e2", "s2", "d2", "ct2"); !errors.Is(err, ErrDegraded) {
		t.Fatalf("mutation on degraded open returned %v, want ErrDegraded", err)
	}
	// Unblock and recover in place.
	if err := os.Remove(squat); err != nil {
		t.Fatal(err)
	}
	if err := re.Recover(); err != nil {
		t.Fatalf("Recover after unblocking: %v", err)
	}
	if err := re.InsertRow("e2", "s2", "d2", "ct2"); err != nil {
		t.Fatalf("insert after Recover: %v", err)
	}
}

// TestDegradedTxnCommitDoesNotMutate pins the commit gate: a commit on
// a degraded handle must be rejected BEFORE any in-memory change — the
// log append alone would fail after the state already moved.
func TestDegradedTxnCommitDoesNotMutate(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "wal")
	ffs := iox.NewFaultFS(iox.OS, nil)
	opts := faultDurableOpts(ffs)
	d, err := OpenDurable(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if err := d.InsertRow("e1", "s1", "d1", "ct1"); err != nil {
		t.Fatal(err)
	}
	// Fail the next sync outright: Sync() degrades the handle.
	ffs.SetPlan(map[uint64]iox.Fault{ffs.Calls() + 1: {Err: syscall.EIO}})
	if err := d.Sync(); !errors.Is(err, ErrWAL) {
		t.Fatalf("sync under fault returned %v, want ErrWAL chain", err)
	}
	if !d.Health().Degraded {
		t.Fatal("handle did not degrade on a failed sync")
	}
	lenBefore, verBefore := d.Len(), d.Version()
	tx := d.Begin()
	if err := tx.InsertRow("e2", "s2", "d2", "ct2"); err != nil {
		t.Fatalf("staging must work on a degraded handle: %v", err)
	}
	err = tx.Commit()
	if !errors.Is(err, ErrDegraded) {
		t.Fatalf("degraded commit returned %v, want ErrDegraded", err)
	}
	var de *DegradedError
	if !errors.As(err, &de) || de.Cause == nil {
		t.Fatalf("degraded commit error %v does not expose its cause", err)
	}
	if d.Len() != lenBefore || d.Version() != verBefore {
		t.Fatal("rejected degraded commit mutated the in-memory state")
	}
}

// TestTransientRetryHeals pins the retry path end to end: an ENOSPC on
// a whole-rewrite unit is retried transparently — the operation
// succeeds, the handle stays healthy, and Health counts the retry.
func TestTransientRetryHeals(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "wal")
	ffs := iox.NewFaultFS(iox.OS, nil)
	d, err := OpenDurable(dir, faultDurableOpts(ffs))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if err := d.InsertRow("e1", "s1", "d1", "ct1"); err != nil {
		t.Fatal(err)
	}
	// The next call a Checkpoint makes is the temp-file Create — a
	// whole-rewrite unit under the retry budget.
	syncCalls := uint64(1) // Checkpoint syncs the log first
	ffs.SetPlan(map[uint64]iox.Fault{ffs.Calls() + syncCalls + 1: {Err: syscall.ENOSPC}})
	if err := d.Checkpoint(); err != nil {
		t.Fatalf("checkpoint under a transient fault should heal by retry: %v", err)
	}
	h := d.Health()
	if h.Degraded {
		t.Fatalf("handle degraded on a retryable transient fault: %+v", h)
	}
	if h.Retries == 0 {
		t.Fatal("retry counter did not move")
	}
	if err := d.InsertRow("e2", "s2", "d2", "ct2"); err != nil {
		t.Fatalf("insert after healed checkpoint: %v", err)
	}
}

// TestConcurrentHealthAndRecover exercises the handle's durability
// surface: Health under the read lock, degradation propagating to Err, Recover under
// the write lock.
func TestConcurrentHealthAndRecover(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "wal")
	ffs := iox.NewFaultFS(iox.OS, nil)
	dc, err := OpenDurable(dir, faultDurableOpts(ffs))
	if err != nil {
		t.Fatal(err)
	}
	defer dc.Close()
	if err := dc.InsertRow("e1", "s1", "d1", "ct1"); err != nil {
		t.Fatal(err)
	}
	if err := dc.Sync(); err != nil {
		t.Fatal(err)
	}
	if h := dc.Health(); h.Degraded || h.Mode != "healthy" || h.Syncs == 0 || h.SyncedSeq != 1 {
		t.Fatalf("healthy facade health: %+v", h)
	}
	ffs.SetPlan(map[uint64]iox.Fault{ffs.Calls() + 1: {Err: syscall.EIO}})
	if err := dc.Sync(); !errors.Is(err, ErrWAL) {
		t.Fatalf("facade sync under fault: %v", err)
	}
	if err := dc.Err(); !errors.Is(err, ErrWAL) {
		t.Fatalf("facade Err after degradation: %v", err)
	}
	if err := dc.InsertRow("e2", "s2", "d2", "ct2"); !errors.Is(err, ErrDegraded) {
		t.Fatalf("facade mutation while degraded: %v", err)
	}
	ffs.SetPlan(nil)
	if err := dc.Recover(); err != nil {
		t.Fatalf("facade Recover: %v", err)
	}
	if err := dc.InsertRow("e2", "s2", "d2", "ct2"); err != nil {
		t.Fatalf("insert after facade Recover: %v", err)
	}
	if h := dc.Health(); h.Degraded || h.Degradations != 1 {
		t.Fatalf("health after facade Recover: %+v", h)
	}
}

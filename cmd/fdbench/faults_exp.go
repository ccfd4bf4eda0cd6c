package main

// faults_exp.go implements E21: the cost of the fault-injectable I/O
// layer. PR "iox" threaded every durable-store disk call through the
// iox.FS interface so tests can inject deterministic disk faults; this
// experiment proves the indirection is free in the only place it could
// hurt — the durable commit path.
//
//   - durable-via-iox: the real durable store (OpenDurable with
//     DurableOptions.FS = the OS passthrough, group-commit 64) — every
//     append, fsync, rename, and directory sync crosses the interface;
//   - direct-os-baseline: the same in-memory commits (identical chase
//     work), the store's own record encoding (clone included), and the
//     WAL writer's exact syscall pattern — one Write per commit, one
//     Sync per 64 — issued directly on a bare *os.File.
//
// Two configurations are measured. The fsync'd pair is the production
// path, reported for context but NOT asserted: a single fsync's latency
// on a shared disk varies by 2-3x between reps, which swamps any
// plausible interface cost. The asserted pair disables fsync on both
// sides (identical syscall streams; the hardware sleeps are gone), so
// what remains is the pure per-commit CPU cost — chase, encode, write —
// and the interface indirection is the only difference between the two
// loops. That pair is measured as the median of many interleaved paired
// reps (pairing cancels machine drift, the median shrugs off GC and
// scheduler outliers) and must stay within 5% on full runs. Quick runs
// print both tables without asserting — a handful of reps is noise.
//
// The experiment closes with an (untimed) degraded-mode serving check:
// an injected fsync failure must flip the handle to degraded read-only
// mode — queries still serve, mutations refuse with ErrDegraded — and
// Recover() on the healed filesystem must restore durability. That is
// the other half of the layer's contract: the interface costs nothing,
// and what it buys is provable fault behaviour.

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"

	"fdnull/internal/iox"
	"fdnull/internal/relation"
	"fdnull/internal/store"
	"fdnull/internal/workload"
)

func runE21(w io.Writer, quick bool) error {
	n := 2000
	if quick {
		n = 300
	}
	groups := max(n/64, 4)
	s, fds, _, rowgen := workload.WriteHeavy(n, groups, 0, int64(n)+53)
	const cadence = 64

	rows := make([][]string, n)
	for i := range rows {
		rows[i] = rowgen(i)
	}
	oracle := store.New(s, fds, store.Options{})
	for i := 0; i < n; i++ {
		if err := oracle.InsertRow(rows[i]...); err != nil {
			return fmt.Errorf("oracle rejected row %d: %v", i, err)
		}
	}

	// The real durable commit path, explicitly through the interface.
	measureIox := func(noSync bool) (time.Duration, error) {
		dir, err := os.MkdirTemp("", "fdbench-iox-*")
		if err != nil {
			return 0, err
		}
		defer os.RemoveAll(dir)
		d, err := store.OpenDurable(dir, store.DurableOptions{
			Scheme: s, FDs: fds, GroupCommit: cadence, FS: iox.OS, NoSync: noSync,
		})
		if err != nil {
			return 0, err
		}
		start := time.Now()
		for i := 0; i < n; i++ {
			if err := d.InsertRow(rows[i]...); err != nil {
				return 0, fmt.Errorf("durable store rejected row %d: %v", i, err)
			}
		}
		if err := d.Sync(); err != nil {
			return 0, err
		}
		elapsed := time.Since(start)
		if err := d.Close(); err != nil {
			return 0, err
		}
		re, err := store.OpenDurable(dir, store.DurableOptions{})
		if err != nil {
			return 0, fmt.Errorf("reopen: %v", err)
		}
		defer re.Close()
		if !relation.Equal(re.Snapshot().Materialize(), oracle.Snapshot()) {
			return 0, fmt.Errorf("recovered state diverged from the in-memory oracle")
		}
		return elapsed, nil
	}

	// The same commits with direct-syscall logging on a bare *os.File.
	measureDirect := func(noSync bool) (time.Duration, error) {
		dir, err := os.MkdirTemp("", "fdbench-direct-*")
		if err != nil {
			return 0, err
		}
		defer os.RemoveAll(dir)
		f, err := os.OpenFile(filepath.Join(dir, "log"), os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
		if err != nil {
			return 0, err
		}
		defer f.Close()
		st := store.New(s, fds, store.Options{})
		start := time.Now()
		pending := 0
		for i := 0; i < n; i++ {
			pre := st.NextMark()
			if err := st.InsertRow(rows[i]...); err != nil {
				return 0, fmt.Errorf("baseline store rejected row %d: %v", i, err)
			}
			frame := store.EncodeInsertRecordForBench(uint64(i+1), pre, rows[i])
			if _, err := f.Write(frame); err != nil {
				return 0, err
			}
			if pending++; pending >= cadence && !noSync {
				if err := f.Sync(); err != nil {
					return 0, err
				}
				pending = 0
			}
		}
		if !noSync {
			if err := f.Sync(); err != nil {
				return 0, err
			}
		}
		return time.Since(start), nil
	}

	// Context pair: the production fsync'd path, interleaved minima.
	// Reported, not asserted — see the file comment on disk jitter.
	fsyncReps := 5
	if quick {
		fsyncReps = 2
	}
	var fDirect, fIox time.Duration
	for rep := 0; rep < fsyncReps; rep++ {
		d, err := measureDirect(false)
		if err != nil {
			return fmt.Errorf("direct-os-baseline (fsync): %v", err)
		}
		if fDirect == 0 || d < fDirect {
			fDirect = d
		}
		d, err = measureIox(false)
		if err != nil {
			return fmt.Errorf("durable-via-iox (fsync): %v", err)
		}
		if fIox == 0 || d < fIox {
			fIox = d
		}
	}

	// Asserted pair: fsync disabled on both sides, median of paired
	// interleaved reps. This is the number the 5% bar judges.
	cpuReps := 64
	if quick {
		cpuReps = 8
	}
	var cpuDirect, cpuIox time.Duration
	ratios := make([]float64, 0, cpuReps)
	for rep := 0; rep < cpuReps; rep++ {
		runtime.GC()
		d, err := measureDirect(true)
		if err != nil {
			return fmt.Errorf("direct-os-baseline (nosync): %v", err)
		}
		runtime.GC()
		di, err := measureIox(true)
		if err != nil {
			return fmt.Errorf("durable-via-iox (nosync): %v", err)
		}
		if cpuDirect == 0 || d < cpuDirect {
			cpuDirect = d
		}
		if cpuIox == 0 || di < cpuIox {
			cpuIox = di
		}
		ratios = append(ratios, float64(di)/float64(d))
	}
	sort.Float64s(ratios)
	overhead := ratios[len(ratios)/2] - 1

	t := &table{header: []string{"config", "n", "wall", "per-commit", "commits/s", "overhead"}}
	t.add("fsync64/direct-os-baseline", fmt.Sprint(n), fDirect.String(), (fDirect / time.Duration(n)).String(),
		fmt.Sprintf("%.0f", float64(n)/fDirect.Seconds()), "baseline")
	t.add("fsync64/durable-via-iox", fmt.Sprint(n), fIox.String(), (fIox / time.Duration(n)).String(),
		fmt.Sprintf("%.0f", float64(n)/fIox.Seconds()),
		fmt.Sprintf("%+.1f%% (disk jitter, not asserted)", (float64(fIox)/float64(fDirect)-1)*100))
	t.add("nosync/direct-os-baseline", fmt.Sprint(n), cpuDirect.String(), (cpuDirect / time.Duration(n)).String(),
		fmt.Sprintf("%.0f", float64(n)/cpuDirect.Seconds()), "baseline")
	t.add("nosync/durable-via-iox", fmt.Sprint(n), cpuIox.String(), (cpuIox / time.Duration(n)).String(),
		fmt.Sprintf("%.0f", float64(n)/cpuIox.Seconds()),
		fmt.Sprintf("%+.1f%% (median of %d paired reps)", overhead*100, cpuReps))
	t.write(w)
	recordBench("E21", "fsync64/direct-os-baseline", n, fDirect, 1.0)
	recordBench("E21", "fsync64/durable-via-iox", n, fIox, float64(fDirect)/float64(fIox))
	recordBench("E21", "nosync/direct-os-baseline", n, cpuDirect, 1.0)
	recordBench("E21", "nosync/durable-via-iox", n, cpuIox, float64(cpuDirect)/float64(cpuIox))
	if !quick && overhead > 0.05 {
		return fmt.Errorf("iox indirection cost %.1f%% per commit, above the 5%% bar", overhead*100)
	}

	// Degraded-mode serving check (untimed): inject one fsync fault,
	// prove the contract the indirection exists to make testable.
	checkDegraded := func() error {
		dir, err := os.MkdirTemp("", "fdbench-degraded-*")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		ffs := iox.NewFaultFS(iox.OS, nil)
		d, err := store.OpenDurable(dir, store.DurableOptions{
			Scheme: s, FDs: fds, GroupCommit: cadence, FS: ffs,
			RetrySleep: func(time.Duration) {},
		})
		if err != nil {
			return err
		}
		defer d.Close()
		const seeded = 32
		for i := 0; i < seeded; i++ {
			if err := d.InsertRow(rows[i]...); err != nil {
				return fmt.Errorf("seed row %d: %v", i, err)
			}
		}
		ffs.SetPlan(map[uint64]iox.Fault{ffs.Calls() + 1: {Err: syscall.EIO}})
		if err := d.Sync(); !errors.Is(err, store.ErrWAL) {
			return fmt.Errorf("injected fsync fault surfaced as %v, want an ErrWAL chain", err)
		}
		h := d.Health()
		if !h.Degraded {
			return fmt.Errorf("handle did not degrade on a failed fsync: %+v", h)
		}
		if got := d.Len(); got != seeded {
			return fmt.Errorf("degraded reads see %d rows, want %d", got, seeded)
		}
		if err := d.InsertRow(rows[seeded]...); !errors.Is(err, store.ErrDegraded) {
			return fmt.Errorf("mutation on a degraded handle returned %v, want ErrDegraded", err)
		}
		ffs.SetPlan(nil)
		if err := d.Recover(); err != nil {
			return fmt.Errorf("Recover on the healed filesystem: %v", err)
		}
		if err := d.InsertRow(rows[seeded]...); err != nil {
			return fmt.Errorf("insert after Recover: %v", err)
		}
		return nil
	}
	if err := checkDegraded(); err != nil {
		return fmt.Errorf("degraded-mode check: %v", err)
	}
	fmt.Fprintln(w, "  direct-os-baseline replays the same commits on a bare *os.File (same chase work, same")
	fmt.Fprintln(w, "  record encoding, same write-per-commit/fsync-per-64 pattern); durable-via-iox is the")
	fmt.Fprintln(w, "  real store with every disk call crossing the iox.FS interface. The fsync'd pair is")
	fmt.Fprintln(w, "  context (disk jitter dominates); the bar judges the nosync pair, where the interface")
	fmt.Fprintln(w, "  is the only difference. Degraded-mode check: an injected fsync fault flipped a handle")
	fmt.Fprintln(w, "  to read-only (queries served, mutations refused with ErrDegraded) and Recover()")
	fmt.Fprintln(w, "  restored durability on the healed filesystem")
	return nil
}

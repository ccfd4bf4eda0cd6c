package main

// wal_exp.go implements E20: the durable store's group-commit knob
// against fsync-per-commit. The same n single-row insert commits run
// through OpenDurable under three configurations:
//
//   - fsync-per-commit (GroupCommit=1): every accepted commit pays one
//     log append AND one fsync before the next begins — the strict
//     no-loss setting, dominated by device sync latency;
//   - group-commit-64: appends are written immediately but fsync'd
//     every 64 records, so a crash loses at most the last 63
//     committed-but-unsynced records (each replays completely or is
//     truncated as a torn tail, never half-applied);
//   - nosync: every fsync skipped — not a durability configuration,
//     just the ceiling that shows how much of the gap is sync latency.
//
// Durability is only worth measuring if the recovered state is right,
// so every configuration is closed, reopened, and compared against an
// in-memory oracle that applied the identical commits: instance (marks
// included), allocator watermark, and weak-convention invariant. The
// acceptance bar: group-commit ≥5x fsync-per-commit at n=2000.

import (
	"fmt"
	"io"
	"os"
	"time"

	"fdnull/internal/relation"
	"fdnull/internal/store"
	"fdnull/internal/workload"
)

func runE20(w io.Writer, quick bool) error {
	n := 2000
	if quick {
		n = 300
	}
	// Many small partition groups keep the in-memory commit work cheap:
	// the experiment contrasts sync policies, and maintenance cost is
	// identical across configurations anyway.
	groups := max(n/64, 4)
	s, fds, _, rowgen := workload.WriteHeavy(n, groups, 0, int64(n)+47)

	configs := []struct {
		name string
		opts store.DurableOptions
	}{
		{"fsync-per-commit", store.DurableOptions{Scheme: s, FDs: fds, GroupCommit: 1}},
		{"group-commit-64", store.DurableOptions{Scheme: s, FDs: fds, GroupCommit: 64}},
		{"nosync", store.DurableOptions{Scheme: s, FDs: fds, NoSync: true}},
	}

	// The oracle applies the identical commits in memory; every
	// configuration's recovered state must equal it exactly.
	oracle := store.New(s, fds, store.Options{})
	for i := 0; i < n; i++ {
		if err := oracle.InsertRow(rowgen(i)...); err != nil {
			return fmt.Errorf("oracle rejected row %d: %v", i, err)
		}
	}

	// measure runs the n commits against a fresh directory and times
	// the commit loop plus the final flush; the reopen-and-compare that
	// follows is correctness, not part of the clock.
	measure := func(opts store.DurableOptions) (time.Duration, error) {
		dir, err := os.MkdirTemp("", "fdbench-wal-*")
		if err != nil {
			return 0, err
		}
		defer os.RemoveAll(dir)
		d, err := store.OpenDurable(dir, opts)
		if err != nil {
			return 0, err
		}
		start := time.Now()
		for i := 0; i < n; i++ {
			if err := d.InsertRow(rowgen(i)...); err != nil {
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
		re, err := store.OpenDurable(dir, store.DurableOptions{Store: opts.Store})
		if err != nil {
			return 0, fmt.Errorf("reopen: %v", err)
		}
		defer re.Close()
		if !relation.Equal(re.Snapshot().Materialize(), oracle.Snapshot()) {
			return 0, fmt.Errorf("recovered state diverged from the in-memory oracle")
		}
		if re.NextMark() != oracle.NextMark() {
			return 0, fmt.Errorf("recovered watermark %d, oracle %d", re.NextMark(), oracle.NextMark())
		}
		if !re.CheckWeak() {
			return 0, fmt.Errorf("recovered state violates the weak-convention invariant")
		}
		return elapsed, nil
	}

	t := &table{header: []string{"config", "n", "wall", "per-commit", "commits/s", "vs fsync-per-commit"}}
	var base time.Duration
	var speedup float64
	for _, cfg := range configs {
		// Min of two repetitions rejects scheduler noise; both reopen and
		// compare against the oracle.
		d, err := measure(cfg.opts)
		if err != nil {
			return fmt.Errorf("%s: %v", cfg.name, err)
		}
		if d2, err := measure(cfg.opts); err != nil {
			return fmt.Errorf("%s: %v", cfg.name, err)
		} else {
			d = min(d, d2)
		}
		rel := "1.0x"
		if cfg.name == "fsync-per-commit" {
			base = d
		} else {
			speedup = float64(base) / float64(d)
			rel = fmt.Sprintf("%.1fx", speedup)
		}
		perOp := d / time.Duration(n)
		t.add(cfg.name, fmt.Sprint(n), d.String(), perOp.String(),
			fmt.Sprintf("%.0f", float64(n)/d.Seconds()), rel)
		recordBench("E20", cfg.name, n, d, float64(base)/float64(d))
		if cfg.name == "group-commit-64" && !quick && speedup < 5 {
			return fmt.Errorf("group commit failed the 5x bar against fsync-per-commit (%.1fx)", speedup)
		}
	}
	t.write(w)
	fmt.Fprintln(w, "  fsync-per-commit pays one device sync per accepted record; group commit writes each")
	fmt.Fprintln(w, "  record immediately but syncs every 64, trading at most 63 committed-but-unsynced")
	fmt.Fprintln(w, "  records on power loss for sync-free commits (each lost record is truncated whole at")
	fmt.Fprintln(w, "  the torn tail, never half-applied). Every configuration is reopened and compared")
	fmt.Fprintln(w, "  against an in-memory oracle before its time counts")
	return nil
}

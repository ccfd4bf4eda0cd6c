package main

// txn_exp.go implements E18: the transactional write path compared
// against per-op commits. A write-set of k=32 inserts lands in ONE
// partition group — the motivating "a department's worth of tuples
// whose nulls resolve against each other" — and is committed three
// ways:
//
//   - batched: Store.Begin, k staged ops, one Txn.Commit — the
//     incremental engine applies the set as one multi-row delta and
//     pays ONE NS-propagation seeded from all staged rows, sweeping
//     the touched group once;
//   - per-op: k individual InsertRow commits on the incremental
//     engine — k one-op write-sets through the same path, each
//     sweeping the (growing) group, O(k) sweeps per write-set;
//   - oracle: the same Txn.Commit on the recheck engine — one clone
//     and one chase per commit.
//
// For pure-insert write-sets deferred and op-by-op checking coincide,
// so all three stores must converge to the identical instance (marks
// included) with identical stats — asserted at every size. The
// acceptance bar: batched commit ≥5x faster than k per-op incremental
// commits at n=2000, p=8.

import (
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"time"

	"fdnull/internal/relation"
	"fdnull/internal/store"
	"fdnull/internal/workload"
)

func runE18(w io.Writer, quick bool) error {
	sizes := []int{500, 1000, 2000}
	batches, k := 8, 32
	if quick {
		sizes = []int{250, 500}
		batches = 4
	}
	t := &table{header: []string{"n", "k", "sets", "batched txn", "per-op inc", "oracle (1 chase)", "per-op/batched"}}
	var speedup float64
	for _, n := range sizes {
		// Division-scale partition groups (n/512 → a handful of groups
		// of several hundred rows at n=2000): the write-set's k rows
		// land in ONE group, so per-op commits re-sweep O(k·group) rows
		// where the batch pays O(group + k) — the gap the experiment
		// quantifies grows with the group size.
		groups := max(n/512, 2)
		s, fds, base, _ := workload.WriteHeavy(n, groups, 0, int64(n)+41)

		rng := rand.New(rand.NewSource(int64(n) + 43))
		nextUID := n + 1
		sets := make([][][]string, batches)
		for b := range sets {
			sets[b] = workload.TxnWriteSet(rng, (b*37)%groups, k, &nextUID)
		}

		commitTxn := func(st *store.Store, rows [][]string) error {
			tx := st.Begin()
			for _, row := range rows {
				if err := tx.InsertRow(row...); err != nil {
					return err
				}
			}
			return tx.Commit()
		}

		// measure replays the identical write-set sequence against fresh
		// stores, phase-major, with a collection between phases so one
		// engine's garbage is not charged to the next engine's clock.
		measure := func() (dTxn, dPerOp, dOracle time.Duration, err error) {
			mk := func(m store.Maintenance) (*store.Store, error) {
				return store.FromRelation(s, fds, base, store.Options{Maintenance: m})
			}
			txnInc, err := mk(store.MaintenanceIncremental)
			if err != nil {
				return 0, 0, 0, err
			}
			perOp, err := mk(store.MaintenanceIncremental)
			if err != nil {
				return 0, 0, 0, err
			}
			oracle, err := mk(store.MaintenanceRecheck)
			if err != nil {
				return 0, 0, 0, err
			}
			runtime.GC()
			for _, rows := range sets {
				start := time.Now()
				if err := commitTxn(txnInc, rows); err != nil {
					return 0, 0, 0, fmt.Errorf("batched commit rejected: %v", err)
				}
				dTxn += time.Since(start)
			}
			runtime.GC()
			for _, rows := range sets {
				start := time.Now()
				for _, row := range rows {
					if err := perOp.InsertRow(row...); err != nil {
						return 0, 0, 0, fmt.Errorf("per-op insert rejected: %v", err)
					}
				}
				dPerOp += time.Since(start)
			}
			runtime.GC()
			for _, rows := range sets {
				start := time.Now()
				if err := commitTxn(oracle, rows); err != nil {
					return 0, 0, 0, fmt.Errorf("oracle commit rejected: %v", err)
				}
				dOracle += time.Since(start)
			}

			// Verdict and state agreement: for pure-insert write-sets the
			// batched commit, the per-op commits, and the one-chase oracle
			// must converge to the identical instance.
			if !relation.Equal(txnInc.Snapshot(), perOp.Snapshot()) {
				return 0, 0, 0, fmt.Errorf("batched and per-op states diverged")
			}
			if !relation.Equal(txnInc.Snapshot(), oracle.Snapshot()) {
				return 0, 0, 0, fmt.Errorf("batched and oracle states diverged")
			}
			ti, tu, td, tr := txnInc.Stats()
			oi, ou, od, or := oracle.Stats()
			pi, _, _, pr := perOp.Stats()
			if ti != oi || tu != ou || td != od || tr != or {
				return 0, 0, 0, fmt.Errorf("batched vs oracle stats diverged")
			}
			if ti != pi || tr != 0 || pr != 0 {
				return 0, 0, 0, fmt.Errorf("per-op stats diverged (inserts %d vs %d)", ti, pi)
			}
			return dTxn, dPerOp, dOracle, nil
		}

		// Min of two repetitions rejects scheduler noise on loaded hosts;
		// both repetitions assert the same agreements on fresh stores.
		dTxn, dPerOp, dOracle, err := measure()
		if err != nil {
			return fmt.Errorf("n=%d: %v", n, err)
		}
		if d2Txn, d2PerOp, d2Oracle, err := measure(); err != nil {
			return fmt.Errorf("n=%d: %v", n, err)
		} else {
			dTxn, dPerOp, dOracle = min(dTxn, d2Txn), min(dPerOp, d2PerOp), min(dOracle, d2Oracle)
		}

		speedup = float64(dPerOp) / float64(dTxn)
		t.add(fmt.Sprint(n), fmt.Sprint(k), fmt.Sprint(batches),
			dTxn.String(), dPerOp.String(), dOracle.String(), fmt.Sprintf("%.1fx", speedup))
	}
	t.write(w)
	if !quick && speedup < 5 {
		return fmt.Errorf("batched commit failed the 5x bar against per-op incremental commits at the largest size (%.1fx)", speedup)
	}
	fmt.Fprintln(w, "  a k-op write-set into one partition group pays ONE propagation seeded from all staged")
	fmt.Fprintln(w, "  rows (touched groups deduplicated, each swept once); per-op commits are k one-op write-sets")
	fmt.Fprintln(w, "  that re-sweep the growing group k times. The recheck oracle — one clone-and-chase per")
	fmt.Fprintln(w, "  commit — anchors correctness: all three converge to the identical instance by assertion")
	return nil
}

package store

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"fdnull/internal/relation"
	"fdnull/internal/value"
	"fdnull/internal/workload"
)

// TestTxnCommitResolvesNullsWithinWriteSet pins the motivating scenario:
// a department's worth of rows whose nulls resolve against *each other*
// commits as one write-set, and the single propagation completes every
// forced cell — identically under both engines.
func TestTxnCommitResolvesNullsWithinWriteSet(t *testing.T) {
	for _, m := range bothEngines {
		st := employeeStore(m)
		tx := st.Begin()
		for _, row := range [][]string{
			{"e1", "s1", "d3", "-"},   // contract unknown
			{"e2", "s2", "d3", "ct2"}, // fixes d3's contract
			{"e3", "-", "d3", "-"},    // both resolve: CT via D#->CT
		} {
			if err := tx.InsertRow(row...); err != nil {
				t.Fatalf("[%s] stage: %v", m, err)
			}
		}
		if tx.Pending() != 3 || tx.Len() != 3 {
			t.Fatalf("[%s] staged %d ops, len %d", m, tx.Pending(), tx.Len())
		}
		if err := tx.Commit(); err != nil {
			t.Fatalf("[%s] commit: %v", m, err)
		}
		ct := st.Scheme().MustAttr("CT")
		for i := 0; i < 3; i++ {
			if got := st.TupleView(i)[ct]; !got.IsConst() || got.Const() != "ct2" {
				t.Fatalf("[%s] tuple %d CT = %s, want ct2", m, i, got)
			}
		}
		ins, _, _, rej := st.Stats()
		if ins != 3 || rej != 0 {
			t.Fatalf("[%s] stats: inserts=%d rejected=%d", m, ins, rej)
		}
		if !st.CheckWeak() {
			t.Fatalf("[%s] invariant broken", m)
		}
	}
}

// TestTxnCommitAtomicRejection: one doomed op rejects the whole
// write-set, the store is untouched, and the error identifies the
// offending staged op, matches ErrInconsistent, and carries the chase
// witness — identically under both engines.
func TestTxnCommitAtomicRejection(t *testing.T) {
	var texts [2]string
	for mi, m := range bothEngines {
		st := employeeStore(m)
		if err := st.InsertRow("e1", "s1", "d1", "ct1"); err != nil {
			t.Fatal(err)
		}
		before := st.Snapshot()
		tx := st.Begin()
		check := func(err error) {
			if err != nil {
				t.Fatalf("[%s] stage: %v", m, err)
			}
		}
		check(tx.InsertRow("e2", "s2", "d2", "ct2")) // fine on its own
		check(tx.InsertRow("e1", "s9", "d1", "ct1")) // e1 with a second salary: doomed
		check(tx.InsertRow("e3", "s3", "d1", "ct1")) // fine on its own
		err := tx.Commit()
		if err == nil {
			t.Fatalf("[%s] doomed write-set committed", m)
		}
		var terr *TxnError
		if !errors.As(err, &terr) {
			t.Fatalf("[%s] want TxnError, got %T: %v", m, err, err)
		}
		if terr.Op != 1 {
			t.Fatalf("[%s] offending op = %d, want 1: %v", m, terr.Op, err)
		}
		if !errors.Is(err, ErrInconsistent) {
			t.Fatalf("[%s] rejection must match ErrInconsistent: %v", m, err)
		}
		var ierr *InconsistencyError
		if !errors.As(err, &ierr) || ierr.Chase == nil || ierr.Chase.Consistent {
			t.Fatalf("[%s] rejection must carry the chase witness: %v", m, err)
		}
		if !relation.Equal(before, st.Snapshot()) {
			t.Fatalf("[%s] rejected commit mutated the store:\n%s", m, st.Snapshot())
		}
		ins, _, _, rej := st.Stats()
		if ins != 1 || rej != 1 {
			t.Fatalf("[%s] stats: inserts=%d rejected=%d", m, ins, rej)
		}
		texts[mi] = err.Error()
	}
	if texts[0] != texts[1] {
		t.Fatalf("engines disagree on the rejection text:\n%s\nvs\n%s", texts[0], texts[1])
	}
}

// TestTxnDeferredChecking: constraints apply to the final state only —
// a write-set that inserts a doomed tuple and then deletes it commits,
// although per-op application would reject the insert.
func TestTxnDeferredChecking(t *testing.T) {
	for _, m := range bothEngines {
		st := employeeStore(m)
		if err := st.InsertRow("e1", "s1", "d1", "ct1"); err != nil {
			t.Fatal(err)
		}
		if err := st.InsertRow("e1", "s9", "d1", "ct1"); err == nil {
			t.Fatalf("[%s] per-op insert of the conflicting tuple must be rejected", m)
		}
		tx := st.Begin()
		if err := tx.InsertRow("e1", "s9", "d1", "ct1"); err != nil { // doomed alone
			t.Fatal(err)
		}
		if err := tx.Delete(1); err != nil { // ...but healed before commit
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatalf("[%s] healed write-set must commit: %v", m, err)
		}
		if st.Len() != 1 || !st.CheckWeak() {
			t.Fatalf("[%s] unexpected final state:\n%s", m, st.Snapshot())
		}
	}
}

// TestTxnSavepoints: RollbackTo discards the staged tail (and only the
// tail); invalidated savepoints are rejected; Len tracks the net
// effect.
func TestTxnSavepoints(t *testing.T) {
	for _, m := range bothEngines {
		st := employeeStore(m)
		tx := st.Begin()
		if err := tx.InsertRow("e1", "s1", "d1", "ct1"); err != nil {
			t.Fatal(err)
		}
		sp := tx.Save()
		if err := tx.InsertRow("e1", "s2", "d1", "ct1"); err != nil { // would doom the commit
			t.Fatal(err)
		}
		later := tx.Save()
		if err := tx.InsertRow("e2", "s2", "d2", "ct2"); err != nil {
			t.Fatal(err)
		}
		if tx.Len() != 3 {
			t.Fatalf("[%s] staged len = %d, want 3", m, tx.Len())
		}
		if err := tx.RollbackTo(sp); err != nil {
			t.Fatalf("[%s] rollback to savepoint: %v", m, err)
		}
		if tx.Pending() != 1 || tx.Len() != 1 {
			t.Fatalf("[%s] after RollbackTo: pending=%d len=%d", m, tx.Pending(), tx.Len())
		}
		if err := tx.RollbackTo(later); err == nil {
			t.Fatalf("[%s] invalidated savepoint must be rejected", m)
		}
		if err := tx.InsertRow("e3", "s3", "d3", "ct3"); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatalf("[%s] commit after savepoint rollback: %v", m, err)
		}
		if st.Len() != 2 {
			t.Fatalf("[%s] final len = %d, want 2 (rolled-back op leaked)", m, st.Len())
		}
	}
}

// TestTxnLifecycleSentinels: a finished transaction refuses further
// staging and commits; empty commits are no-ops.
func TestTxnLifecycleSentinels(t *testing.T) {
	st := employeeStore(engIncremental)
	tx := st.Begin()
	if err := tx.Commit(); err != nil {
		t.Fatalf("empty commit: %v", err)
	}
	if err := tx.Commit(); !errors.Is(err, ErrTxnFinished) {
		t.Fatalf("second commit: %v, want ErrTxnFinished", err)
	}
	if err := tx.InsertRow("e1", "s1", "d1", "ct1"); !errors.Is(err, ErrTxnFinished) {
		t.Fatalf("staging after commit: %v", err)
	}
	tx2 := st.Begin()
	if err := tx2.InsertRow("e1", "s1", "d1", "ct1"); err != nil {
		t.Fatal(err)
	}
	tx2.Rollback()
	if err := tx2.Commit(); !errors.Is(err, ErrTxnFinished) {
		t.Fatalf("commit after rollback: %v", err)
	}
	if st.Len() != 0 {
		t.Fatal("rolled-back transaction mutated the store")
	}
	if v := st.Version(); v != 0 {
		t.Fatalf("empty/rolled-back transactions must not bump the version: %d", v)
	}
}

// TestTxnConflict: first committer wins — both against a direct
// interleaved mutation and against another transaction.
func TestTxnConflict(t *testing.T) {
	for _, m := range bothEngines {
		st := employeeStore(m)
		tx := st.Begin()
		if err := tx.InsertRow("e1", "s1", "d1", "ct1"); err != nil {
			t.Fatal(err)
		}
		if err := st.InsertRow("e2", "s2", "d2", "ct2"); err != nil { // direct write overtakes
			t.Fatal(err)
		}
		if err := tx.Commit(); !errors.Is(err, ErrTxnConflict) {
			t.Fatalf("[%s] overtaken commit: %v, want ErrTxnConflict", m, err)
		}
		// A *rejected* interleaved mutation leaves the committed state
		// untouched and must NOT conflict an innocent transaction.
		txR := st.Begin()
		if err := txR.InsertRow("e5", "s5", "d1", "ct1"); err != nil {
			t.Fatal(err)
		}
		if err := st.InsertRow("e2", "s9", "d2", "ct2"); err == nil {
			t.Fatalf("[%s] interleaved doomed insert must be rejected", m)
		}
		if err := txR.Commit(); err != nil {
			t.Fatalf("[%s] commit after a rejected interleaved op: %v", m, err)
		}
		txA, txB := st.Begin(), st.Begin()
		if err := txA.InsertRow("e3", "s3", "d3", "ct3"); err != nil {
			t.Fatal(err)
		}
		if err := txB.InsertRow("e4", "s4", "d4", "ct1"); err != nil {
			t.Fatal(err)
		}
		if err := txA.Commit(); err != nil {
			t.Fatalf("[%s] first committer: %v", m, err)
		}
		if err := txB.Commit(); !errors.Is(err, ErrTxnConflict) {
			t.Fatalf("[%s] second committer: %v, want ErrTxnConflict", m, err)
		}
		if st.Len() != 3 {
			t.Fatalf("[%s] len = %d, want 3", m, st.Len())
		}
	}
}

// TestTxnStructuralFailure: a staged op that cannot apply (duplicate)
// rejects the whole write-set with op attribution, does NOT count as a
// constraint rejection, and leaves the store untouched.
func TestTxnStructuralFailure(t *testing.T) {
	var texts [2]string
	for mi, m := range bothEngines {
		st := employeeStore(m)
		if err := st.InsertRow("e1", "s1", "d1", "ct1"); err != nil {
			t.Fatal(err)
		}
		tx := st.Begin()
		if err := tx.InsertRow("e2", "s2", "d2", "ct2"); err != nil {
			t.Fatal(err)
		}
		if err := tx.InsertRow("e1", "s1", "d1", "ct1"); err != nil { // duplicate of the base row
			t.Fatal(err)
		}
		err := tx.Commit()
		var terr *TxnError
		if !errors.As(err, &terr) || terr.Op != 1 {
			t.Fatalf("[%s] want TxnError at op 1, got %v", m, err)
		}
		if errors.Is(err, ErrInconsistent) {
			t.Fatalf("[%s] structural failure must not match ErrInconsistent", m)
		}
		if st.Len() != 1 {
			t.Fatalf("[%s] failed commit mutated the store", m)
		}
		ins, _, _, rej := st.Stats()
		if ins != 1 || rej != 0 {
			t.Fatalf("[%s] stats: inserts=%d rejected=%d", m, ins, rej)
		}
		texts[mi] = err.Error()
	}
	if texts[0] != texts[1] {
		t.Fatalf("engines disagree on the structural failure:\n%s\nvs\n%s", texts[0], texts[1])
	}
}

// TestTxnMixedOpsEngineParity: a write-set mixing inserts, updates (of
// base and staged rows), and a trailing delete produces identical final
// state, stats, and marks under both engines.
func TestTxnMixedOpsEngineParity(t *testing.T) {
	mk := func(m engine) *Store {
		st := employeeStore(m)
		for _, row := range [][]string{
			{"e1", "s1", "d1", "-"},
			{"e2", "s2", "d2", "ct2"},
			{"e3", "-", "d1", "-"},
		} {
			if err := st.InsertRow(row...); err != nil {
				t.Fatal(err)
			}
		}
		return st
	}
	run := func(st *Store) error {
		sl := st.Scheme().MustAttr("SL")
		ct := st.Scheme().MustAttr("CT")
		tx := st.Begin()
		check := func(err error) {
			if err != nil {
				t.Fatal(err)
			}
		}
		check(tx.InsertRow("e4", "-", "d1", "-")) // joins d1, everything forced later
		check(tx.Update(3, sl, value.NewConst("s4")))
		check(tx.Update(0, ct, value.NewConst("ct1"))) // fixes d1's contract for three rows
		check(tx.Update(2, sl, value.NewNull(40)))     // explicit mark above the allocator
		check(tx.Delete(1))                            // drop e2; the last row swaps into slot 1
		return tx.Commit()
	}
	inc, rec := mk(engIncremental), mk(engRecheck)
	errInc, errRec := run(inc), run(rec)
	if errInc != nil || errRec != nil {
		t.Fatalf("commits failed: incremental=%v recheck=%v", errInc, errRec)
	}
	if !relation.Equal(inc.Snapshot(), rec.Snapshot()) {
		t.Fatalf("states diverged:\nincremental:\n%s\nrecheck:\n%s", inc.Snapshot(), rec.Snapshot())
	}
	if fi, fr := inc.FreshNull(), rec.FreshNull(); !fi.Identical(fr) {
		t.Fatalf("allocators diverged: %s vs %s", fi, fr)
	}
	i1, u1, d1, r1 := inc.Stats()
	i2, u2, d2, r2 := rec.Stats()
	if i1 != i2 || u1 != u2 || d1 != d2 || r1 != r2 {
		t.Fatalf("stats diverged: (%d,%d,%d,%d) vs (%d,%d,%d,%d)", i1, u1, d1, r1, i2, u2, d2, r2)
	}
	if i1 != 4 || u1 != 3 || d1 != 1 {
		t.Fatalf("counters: inserts=%d updates=%d deletes=%d", i1, u1, d1)
	}
}

// TestTxnNothingInsertRejected: a staged '!' cell routes the commit to
// the oracle and rejects with the poisoned witness under both engines.
func TestTxnNothingInsertRejected(t *testing.T) {
	for _, m := range bothEngines {
		st := employeeStore(m)
		tx := st.Begin()
		if err := tx.InsertRow("e1", "s1", "d1", "ct1"); err != nil {
			t.Fatal(err)
		}
		if err := tx.InsertRow("e2", "s2", "!", "ct2"); err != nil {
			t.Fatal(err)
		}
		err := tx.Commit()
		if !errors.Is(err, ErrInconsistent) {
			t.Fatalf("[%s] nothing-bearing write-set: %v", m, err)
		}
		var terr *TxnError
		if !errors.As(err, &terr) || terr.Op != 1 {
			t.Fatalf("[%s] offending op attribution: %v", m, err)
		}
		if st.Len() != 0 {
			t.Fatalf("[%s] store mutated", m)
		}
	}
}

// TestTxnLargeBatchMatchesOracle: a bigger randomized-ish write-set per
// group exercises the multi-seed propagation's group dedup against the
// one-chase oracle. Then write-sets of k = 32 inserts that land in ONE
// partition group of a preloaded workload.WriteHeavy store are committed
// three ways: one Txn each on the recheck oracle (one chase per commit),
// k one-op commits each on the incremental engine, and one Txn each on
// it (one multi-row delta, one NS-propagation seeded from all staged
// rows). For pure-insert write-sets deferred and op-by-op checking
// coincide, so all three must reach the identical instance, marks
// included, with equal stats and no refusal.
func TestTxnLargeBatchMatchesOracle(t *testing.T) {
	mk := func(m engine) (*Store, error) {
		st := employeeStore(m)
		tx := st.Begin()
		for i := 0; i < 16; i++ {
			g := i % 4
			row := []string{fmt.Sprintf("e%d", i+1), fmt.Sprintf("s%d", i%6+1), fmt.Sprintf("d%d", g+1), "-"}
			if i < 4 {
				row[3] = fmt.Sprintf("ct%d", g%3+1) // one row per department fixes CT
			}
			if err := tx.InsertRow(row...); err != nil {
				return nil, err
			}
		}
		return st, tx.Commit()
	}
	inc, errInc := mk(engIncremental)
	rec, errRec := mk(engRecheck)
	if errInc != nil || errRec != nil {
		t.Fatalf("commit: incremental=%v recheck=%v", errInc, errRec)
	}
	if !relation.Equal(inc.Snapshot(), rec.Snapshot()) {
		t.Fatalf("states diverged:\nincremental:\n%s\nrecheck:\n%s", inc.Snapshot(), rec.Snapshot())
	}
	ct := inc.Scheme().MustAttr("CT")
	for i := 0; i < inc.Len(); i++ {
		if !inc.TupleView(i)[ct].IsConst() {
			t.Fatalf("row %d CT not forced:\n%s", i, inc.Snapshot())
		}
	}

	sizes, batches := []int{500, 1000, 2000}, 8
	if testing.Short() {
		sizes, batches = []int{250, 500}, 4
	}
	const k = 32
	for _, n := range sizes {
		t.Run(fmt.Sprintf("write-heavy/n=%d", n), func(t *testing.T) {
			// Division-scale partition groups (a handful of several hundred
			// rows at n=2000), so the group a write-set lands in is large
			// against k.
			groups := max(n/512, 2)
			s, fds, base, _ := workload.WriteHeavy(n, groups, 0, int64(n)+41)
			rng := rand.New(rand.NewSource(int64(n) + 43))
			nextUID := n + 1
			sets := make([][][]string, batches)
			for b := range sets {
				sets[b] = workload.TxnWriteSet(rng, (b*37)%groups, k, &nextUID)
			}
			oracle, err := NewRecheckOracle(s, fds, base)
			if err != nil {
				t.Fatal(err)
			}
			perOp, err := FromRelation(s, fds, base)
			if err != nil {
				t.Fatal(err)
			}
			batched, err := FromRelation(s, fds, base)
			if err != nil {
				t.Fatal(err)
			}
			for b, rows := range sets {
				for _, row := range rows {
					if err := perOp.InsertRow(row...); err != nil {
						t.Fatalf("n=%d set %d: one-op commit refused: %v", n, b, err)
					}
				}
				for _, st := range []*Store{oracle, batched} {
					tx := st.Begin()
					for _, row := range rows {
						if err := tx.InsertRow(row...); err != nil {
							t.Fatalf("n=%d set %d: staging refused: %v", n, b, err)
						}
					}
					if err := tx.Commit(); err != nil {
						t.Fatalf("n=%d set %d (%s): commit refused: %v", n, b, engine(st.recheck), err)
					}
				}
			}
			assertAgreement(t, batches, fmt.Sprintf("n=%d, one-op commits", n), nil, nil, perOp, oracle)
			assertAgreement(t, batches, fmt.Sprintf("n=%d, batched commits", n), nil, nil, batched, oracle)
		})
	}
}

// TestConcurrentTxn: snapshot stability, lock-free staging, and
// first-committer-wins conflicts at the facade level.
func TestConcurrentTxn(t *testing.T) {
	c, s, _ := concurrentFixture()
	if err := c.InsertRow("e1", "s1", "d1", "-"); err != nil {
		t.Fatal(err)
	}
	txA := c.BeginTxn()
	txB := c.BeginTxn()
	snap := txA.Snapshot()
	if err := txA.InsertRow("e2", "s2", "d1", "ct1"); err != nil {
		t.Fatal(err)
	}
	if err := txB.Update(0, s.MustAttr("SL"), value.NewConst("s9")); err != nil {
		t.Fatal(err)
	}
	if err := txA.Commit(); err != nil {
		t.Fatalf("first committer: %v", err)
	}
	if err := txB.Commit(); !errors.Is(err, ErrTxnConflict) {
		t.Fatalf("second committer: %v, want ErrTxnConflict", err)
	}
	// The begin-time snapshot is bit-stable across the committed write
	// (which substituted e1's CT via D# -> CT).
	ct := s.MustAttr("CT")
	if got := snap.Tuple(0)[ct]; !got.IsNull() {
		t.Fatalf("snapshot leaked a post-begin substitution: %s", got)
	}
	if got := c.Snapshot().Tuple(0)[ct]; !got.IsConst() || got.Const() != "ct1" {
		t.Fatalf("committed state missing the substitution: %s", got)
	}
	if c.Len() != 2 {
		t.Fatalf("len = %d", c.Len())
	}
}

// TestTxnUpdateMarkDoesNotAliasFreshNulls: an explicit marked null
// staged by an Update must advance the allocator before later staged
// rows parse their "-" cells — otherwise a fresh null would silently
// receive the update's mark and alias two unrelated unknowns into one
// class (under BOTH engines, so only this direct probe can catch it).
func TestTxnUpdateMarkDoesNotAliasFreshNulls(t *testing.T) {
	for _, m := range bothEngines {
		st := employeeStore(m)
		if err := st.InsertRow("e1", "s1", "d1", "ct1"); err != nil {
			t.Fatal(err)
		}
		ct := st.Scheme().MustAttr("CT")
		tx := st.Begin()
		if err := tx.Update(0, ct, value.NewNull(4)); err != nil { // above the allocator
			t.Fatal(err)
		}
		if err := tx.InsertRow("e2", "-", "d2", "-"); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatalf("[%s] commit: %v", m, err)
		}
		upd := st.TupleView(st.Find(mustParsed(t, st, "e2"))) // resolve e2's row
		for a, v := range upd {
			if v.IsNull() && v.Mark() == 4 {
				t.Fatalf("[%s] fresh null aliased the staged update's ⊥4 (attr %d):\n%s",
					m, a, st.Snapshot())
			}
		}
		if got := st.TupleView(0)[ct]; !got.IsNull() || got.Mark() != 4 {
			t.Fatalf("[%s] update's explicit mark lost: %s", m, got)
		}
		if f := st.FreshNull(); f.Mark() <= 4 {
			t.Fatalf("[%s] allocator not advanced over the staged mark: %s", m, f)
		}
	}
}

// mustParsed finds the row whose first cell is the given constant.
func mustParsed(t *testing.T, st *Store, e string) relation.Tuple {
	t.Helper()
	for i := 0; i < st.Len(); i++ {
		if v := st.TupleView(i)[0]; v.IsConst() && v.Const() == e {
			return st.TupleView(i)
		}
	}
	t.Fatalf("no row with E#=%s", e)
	return nil
}

// TestTxnEmptyCommitNeverConflicts: a drained or empty write-set
// applies nothing and must not report a conflict even when other
// writers committed after Begin.
func TestTxnEmptyCommitNeverConflicts(t *testing.T) {
	st := employeeStore(engIncremental)
	tx := st.Begin()
	if err := tx.InsertRow("e1", "s1", "d1", "ct1"); err != nil {
		t.Fatal(err)
	}
	if err := tx.RollbackTo(0); err != nil { // drain the write-set
		t.Fatal(err)
	}
	if err := st.InsertRow("e2", "s2", "d2", "ct2"); err != nil { // overtaking writer
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatalf("empty commit must succeed, got %v", err)
	}
}

// TestTxnRejectAfterSubstitutionRollsBack: nothing pre-filters a
// write-set, so a clash the SECOND FD's sweep finds arrives after the
// first FD's sweep already substituted a shared mark across committed
// rows. The rejection must undo those substitutions — by undo log for a
// delete-free write-set, by snapshot for one with a staged delete — and
// come back from the oracle identical to the recheck engine's.
func TestTxnRejectAfterSubstitutionRollsBack(t *testing.T) {
	for _, withDelete := range []bool{false, true} {
		var stores [2]*Store
		var texts [2]string
		for mi, m := range bothEngines {
			st := employeeStore(m)
			for _, row := range [][]string{
				{"e1", "-1", "d1", "ct1"}, // ⊥1 is shared with e2's salary
				{"e2", "-1", "d2", "ct2"},
				{"e3", "s3", "d3", "ct3"},
			} {
				if err := st.InsertRow(row...); err != nil {
					t.Fatal(err)
				}
			}
			before, mark, version := st.Snapshot(), st.NextMark(), st.Version()
			tx := st.Begin()
			check := func(err error) {
				t.Helper()
				if err != nil {
					t.Fatalf("[%s delete=%t] stage: %v", m, withDelete, err)
				}
			}
			if withDelete {
				check(tx.Delete(2))
			}
			// E# -> SL,D# sweeps e1's group first and binds ⊥1 := s1 in both
			// committed rows; only then does D# -> CT meet ct1 vs ct2 in d1.
			check(tx.InsertRow("e1", "s1", "d1", "-"))
			check(tx.InsertRow("e9", "s9", "d1", "ct2"))
			err := tx.Commit()
			var terr *TxnError
			if !errors.As(err, &terr) || !errors.Is(err, ErrInconsistent) {
				t.Fatalf("[%s delete=%t] want a constraint TxnError, got %v", m, withDelete, err)
			}
			texts[mi] = err.Error()
			if !relation.Equal(before, st.Snapshot()) {
				t.Fatalf("[%s delete=%t] rejected commit left substitutions behind:\nbefore:\n%s\nafter:\n%s",
					m, withDelete, before, st.Snapshot())
			}
			if st.NextMark() != mark {
				t.Fatalf("[%s delete=%t] allocator %d after rejection, want %d", m, withDelete, st.NextMark(), mark)
			}
			if st.Version() < version {
				t.Fatalf("[%s delete=%t] version regressed: %d < %d", m, withDelete, st.Version(), version)
			}
			// The mark index was rebuilt from the restored cells: an accepted
			// insert resolving ⊥1 must reach both of its occurrences.
			if err := st.InsertRow("e1", "s4", "d1", "-"); err != nil {
				t.Fatalf("[%s delete=%t] insert after rejection: %v", m, withDelete, err)
			}
			stores[mi] = st
		}
		if texts[0] != texts[1] {
			t.Fatalf("delete=%t: engines disagree on the rejection:\n%s\nvs\n%s", withDelete, texts[0], texts[1])
		}
		a, b := stores[0], stores[1]
		if a.Snapshot().String() != b.Snapshot().String() || a.NextMark() != b.NextMark() {
			t.Fatalf("delete=%t: engines diverged after the rejection:\nincremental (next ⊥%d):\n%s\nrecheck (next ⊥%d):\n%s",
				withDelete, a.NextMark(), a.Snapshot(), b.NextMark(), b.Snapshot())
		}
		sl := a.Scheme().MustAttr("SL")
		if got := a.TupleView(1)[sl]; !got.IsConst() || got.Const() != "s4" {
			t.Fatalf("delete=%t: e2's salary = %s, want s4 through the shared mark", withDelete, got)
		}
	}
}

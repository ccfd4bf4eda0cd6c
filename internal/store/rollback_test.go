package store

// rollback_test.go checks the one seam the lockstep exercisers did not
// look at: what a write-set that does NOT commit leaves behind. Rejected,
// structurally failed or discarded (2PC), it must leave no trace — not in
// the rows or their order, and not in any structure derived from them.
// captureTrace / assertNoTrace are that check; TestRollbackLeavesNoTrace
// runs it over the write-set shapes the undo log distinguishes, and the
// three exercisers run it after every step that did not commit.

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"testing"

	"fdnull/internal/relation"
	"fdnull/internal/schema"
	"fdnull/internal/value"
)

// rollbackTrace is what a write-set that did not commit must leave exactly
// as it found it (the rejected counter aside, which callers own).
type rollbackTrace struct {
	rows                      string // the tuples, in order
	nextMark                  int
	inserts, updates, deletes int
	sets                      []schema.AttrSet // the X-partition indexes compared
	built                     uint64           // index builds so far, identity index included
	incBuilt                  bool             // the mark-occurrence index existed
}

// captureTrace records st's state before a write-set runs. It first asks
// for every index the check will compare — each dependency's left-hand
// side, every singleton, and the identity index — so that all of them are
// cached, and the write-set has to maintain them rather than find them
// missing.
func captureTrace(st *Store) rollbackTrace {
	var tr rollbackTrace
	for _, f := range st.fds {
		tr.sets = append(tr.sets, f.X)
	}
	for a := 0; a < st.scheme.Arity(); a++ {
		tr.sets = append(tr.sets, schema.NewAttrSet(schema.Attr(a)))
	}
	for _, set := range tr.sets {
		st.rel.IndexOn(set)
	}
	st.Find(make(relation.Tuple, st.scheme.Arity())) // never stored; builds the identity index
	tr.rows, tr.nextMark = st.rel.String(), st.NextMark()
	tr.inserts, tr.updates, tr.deletes, _ = st.Stats()
	_, tr.built = st.rel.IndexCounts()
	tr.incBuilt = st.marks != nil
	return tr
}

// traceIndexShape flattens an X-partition index into an order-insensitive
// form (relation's own tests have the same helper; it is not exported).
func traceIndexShape(ix *relation.Index) string {
	norm := func(rows []int) []int {
		out := append([]int(nil), rows...)
		sort.Ints(out)
		return out
	}
	var groups []string
	ix.ForEachGroup(func(rows []int) bool {
		groups = append(groups, fmt.Sprint(norm(rows)))
		return true
	})
	sort.Strings(groups)
	return fmt.Sprintf("groups=%v nulls=%v nothing=%v", groups, norm(ix.NullRows()), norm(ix.NothingRows()))
}

// markIndexShape renders a mark-occurrence index as a set of sets.
func markIndexShape(marks map[int][]cellRef) string {
	var lines []string
	for m, refs := range marks {
		cells := make([]string, len(refs))
		for k, r := range refs {
			cells[k] = fmt.Sprintf("t%d.%d", r.ti, r.a)
		}
		sort.Strings(cells)
		lines = append(lines, fmt.Sprintf("⊥%d@%v", m, cells))
	}
	sort.Strings(lines)
	return strings.Join(lines, " ")
}

// assertNoTrace holds st to the state captureTrace recorded: tuples and
// their order, the allocator, the accepted-op counters, Find of every row,
// every cached index equal to a rebuild — with not one index built since
// the capture, so what is compared IS the maintained one — and the
// mark-occurrence index equal, as sets, to one built from scratch.
func assertNoTrace(t *testing.T, label string, st *Store, before rollbackTrace) {
	t.Helper()
	if got := st.rel.String(); got != before.rows {
		t.Fatalf("%s: the write-set did not commit, yet the instance moved:\nbefore:\n%safter:\n%s", label, before.rows, got)
	}
	if got := st.NextMark(); got != before.nextMark {
		t.Errorf("%s: allocator %d -> %d", label, before.nextMark, got)
	}
	if i, u, d, _ := st.Stats(); i != before.inserts || u != before.updates || d != before.deletes {
		t.Errorf("%s: accepted-op counters (%d,%d,%d) -> (%d,%d,%d)", label, before.inserts, before.updates, before.deletes, i, u, d)
	}
	for i, tup := range st.rel.Tuples() {
		// A substitution can leave two stored rows identical: any of them.
		if j := st.Find(tup); j < 0 || !tup.IdenticalOn(st.rel.Tuple(j), st.scheme.All()) {
			t.Errorf("%s: Find(row %d %s) = %d", label, i, tup, j)
		}
	}
	for _, set := range before.sets {
		if got, want := traceIndexShape(st.rel.IndexOn(set)), traceIndexShape(relation.BuildIndex(st.rel, set)); got != want {
			t.Errorf("%s: cached index on %s is not what a rebuild gives:\n got %s\nwant %s", label, st.scheme.FormatSet(set), got, want)
		}
	}
	if _, built := st.rel.IndexCounts(); built != before.built {
		t.Errorf("%s: index builds %d -> %d: a write-set that did not commit left an index to rebuild", label, before.built, built)
	}
	if st.recheck {
		return
	}
	if st.marks == nil {
		if before.incBuilt {
			t.Errorf("%s: the rollback dropped the mark-occurrence index", label)
		}
		return
	}
	want := map[int][]cellRef{}
	for i, tup := range st.rel.Tuples() {
		eachNull(i, tup, func(m int, ref cellRef) { want[m] = append(want[m], ref) })
	}
	if got, want := markIndexShape(st.marks), markIndexShape(want); got != want {
		t.Errorf("%s: mark-occurrence index is not what a rebuild gives:\n got %s\nwant %s", label, got, want)
	}
}

// noTraceBase is the committed instance most shapes start from. After the
// NS-rules: t0 and t4 share one CT unknown (D# -> CT on d1), t1 has an
// unknown salary, t3 an unknown department.
var noTraceBase = [][]string{
	{"e1", "s1", "d1", "-"},
	{"e3", "-", "d2", "ct2"},
	{"e4", "s4", "d3", "ct3"},
	{"e6", "s6", "-", "ct1"},
	{"e2", "s2", "d1", "-"},
}

// TestRollbackLeavesNoTrace runs each write-set shape twice on the
// incremental engine: with its dooming op, through Commit, which must
// refuse it (a constraint rejection unless the shape says structural);
// and without it, through prepare + discard, the 2PC path of a healthy
// shard whose sibling refused. Either way assertNoTrace must hold.
func TestRollbackLeavesNoTrace(t *testing.T) {
	doomInsert := func(tx *Txn) error { return tx.InsertRow("e4", "s9", "d3", "ct3") } // e4 earns s4
	cases := []struct {
		name       string
		base       [][]string
		ops, doom  func(tx *Txn) error
		structural bool
	}{
		{name: "insert-only", base: noTraceBase,
			ops:  func(tx *Txn) error { return tx.InsertRow("e7", "-", "d3", "-") },
			doom: doomInsert},
		{name: "update-only", base: noTraceBase,
			ops:  func(tx *Txn) error { return tx.Update(1, 1, value.NewConst("s3")) },
			doom: func(tx *Txn) error { return tx.Update(4, 0, value.NewConst("e1")) }}, // e1 earns s1, not s2
		{name: "delete first row", base: noTraceBase,
			ops:  func(tx *Txn) error { return tx.Delete(0) },
			doom: doomInsert},
		{name: "delete last row", base: noTraceBase,
			ops:  func(tx *Txn) error { return tx.Delete(4) },
			doom: doomInsert},
		{name: "delete only row", base: noTraceBase[:1],
			ops: func(tx *Txn) error { return tx.Delete(0) },
			doom: func(tx *Txn) error {
				return errors.Join(tx.InsertRow("e9", "s1", "d1", "-"), tx.InsertRow("e9", "s2", "d1", "-"))
			}},
		{name: "delete then insert into the freed slot", base: noTraceBase,
			ops: func(tx *Txn) error {
				return errors.Join(tx.Delete(4), tx.InsertRow("e7", "s7", "d1", "-"))
			},
			doom: doomInsert},
		{name: "insert then delete a base row: the insert is what moves", base: noTraceBase,
			ops: func(tx *Txn) error {
				return errors.Join(tx.InsertRow("e7", "-", "d1", "-"), tx.Delete(1))
			},
			doom: doomInsert},
		{name: "a moved row carrying shared marks", base: noTraceBase,
			ops: func(tx *Txn) error { // t4 (shares t0's CT unknown) moves into slot 2, and is then resolved
				return errors.Join(tx.Delete(2), tx.Update(2, 3, value.NewConst("ct2")))
			},
			doom: func(tx *Txn) error { return tx.InsertRow("e3", "s3", "d1", "-") }}, // e3 works in d2
		{name: "a substitution chain", base: noTraceBase,
			// e7 pins d1's contract: t0 and t4 are substituted. The doom puts
			// e6 in d2, which substitutes t3's department — and only then
			// finds d2 with two contracts.
			ops:  func(tx *Txn) error { return tx.InsertRow("e7", "s7", "d1", "ct1") },
			doom: func(tx *Txn) error { return tx.InsertRow("e6", "s6", "d2", "-") }},
		{name: "a structural failure after a delete", base: noTraceBase, structural: true,
			ops: func(tx *Txn) error {
				return errors.Join(tx.Update(0, 3, value.NewConst("ct3")), tx.Delete(1))
			},
			doom: func(tx *Txn) error { return tx.InsertRow("e4", "s4", "d3", "ct3") }}, // t2, stored
	}
	for _, tc := range cases {
		for _, mode := range []string{"rejected", "discarded"} {
			t.Run(tc.name+"/"+mode, func(t *testing.T) {
				st := employeeStore(engIncremental)
				for _, row := range tc.base {
					if err := st.InsertRow(row...); err != nil {
						t.Fatal(err)
					}
				}
				before := captureTrace(st)
				_, _, _, rejBefore := st.Stats()
				tx := st.Begin()
				if err := tc.ops(tx); err != nil {
					t.Fatalf("stage: %v", err)
				}
				wantRej := 0
				if mode == "discarded" {
					p, err := st.prepareTxn(tx.ops)
					if err != nil {
						t.Fatalf("the write-set without its dooming op must prepare: %v", err)
					}
					if st.rel.String() == before.rows {
						t.Fatal("prepare left the instance as it was: nothing to discard")
					}
					p.discard()
				} else {
					if err := tc.doom(tx); err != nil {
						t.Fatalf("stage: %v", err)
					}
					err := tx.Commit()
					var terr *TxnError
					if !errors.As(err, &terr) || errors.Is(err, ErrInconsistent) == tc.structural {
						t.Fatalf("commit: %v; want a *TxnError, structural: %v", err, tc.structural)
					}
					if !tc.structural {
						wantRej = 1
					}
				}
				assertNoTrace(t, mode, st, before)
				if _, _, _, rej := st.Stats(); rej-rejBefore != wantRej {
					t.Errorf("rejected counter moved by %d, want %d", rej-rejBefore, wantRej)
				}
				// And the store is still the store: the next write is accepted
				// and maintained like any other.
				if err := st.InsertRow("e8", "s8", "d1", "ct1"); err != nil {
					t.Fatalf("insert after the rollback: %v", err)
				}
				if !st.CheckWeak() {
					t.Fatal("weak satisfiability lost after the rollback")
				}
			})
		}
	}
}

// TestShardedDiscardLeavesNoTrace is the two-shard shape: a write-set
// deletes, updates and inserts on one shard — healthy there, prepared in
// place — and is refused by the other, so the coordinator discards the
// healthy shard. Both shards must be as they were.
func TestShardedDiscardLeavesNoTrace(t *testing.T) {
	sh, _, _ := mustSharded(t, 2, engIncremental)
	row := func(k int, a, b string) relation.Tuple {
		cell := func(c string) value.V {
			v, err := value.Parse(c)
			if err != nil {
				t.Fatal(err)
			}
			return v
		}
		return relation.Tuple{value.NewConst(fmt.Sprintf("k%d", k)), cell(a), cell(b)}
	}
	// Four keys on shard 0 and one on shard 1.
	var home [2][]int
	for k := 1; k <= 64 && (len(home[0]) < 4 || len(home[1]) < 1); k++ {
		si, _ := sh.ShardOf(row(k, "a1", "b1"))
		home[si] = append(home[si], k)
	}
	h, o := home[0], home[1][0]
	for i, k := range h[:3] {
		if err := sh.Insert(row(k, fmt.Sprintf("a%d", i+1), fmt.Sprintf("-%d", i+1))); err != nil {
			t.Fatal(err)
		}
	}
	if err := sh.Insert(row(o, "a1", "b1")); err != nil {
		t.Fatal(err)
	}
	before := []rollbackTrace{captureTrace(sh.Shard(0)), captureTrace(sh.Shard(1))}

	tx := sh.BeginTxn()
	stage := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("stage: %v", err)
		}
	}
	stage(tx.Delete(row(h[0], "a1", "-1")))                          // the last row moves into slot 0
	stage(tx.Update(row(h[2], "a3", "-3"), 2, value.NewConst("b3"))) // … and is resolved there
	stage(tx.Insert(row(h[3], "a4", "-2")))                          // shares h[1]'s unknown
	stage(tx.Insert(row(h[3], "a4", "b5")))                          // … which this row resolves, in both
	stage(tx.Insert(row(o, "a2", "b1")))                             // refused: key o has a1
	err := tx.Commit()
	var terr *TxnError
	if !errors.As(err, &terr) || !errors.Is(err, ErrInconsistent) || terr.Op != 4 {
		t.Fatalf("commit: %v; want a constraint rejection blaming op 4", err)
	}
	for si := range before {
		assertNoTrace(t, fmt.Sprintf("shard %d", si), sh.Shard(si), before[si])
	}
}

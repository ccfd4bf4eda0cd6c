package fdnull_test

import (
	"errors"
	"fmt"
	"os"

	fdnull "fdnull"
)

// The paper's Figure 2 r4: both completions of the null determinant are
// present with disagreeing consequents, so the dependency is false by
// domain exhaustion — Proposition 1's case [F2].
func ExampleEvaluate() {
	domA, _ := fdnull.NewDomain("domA", "a1", "a2") // |dom(A)| = 2
	s, _ := fdnull.NewScheme("R", []string{"A", "B", "C"},
		[]*fdnull.Domain{domA, fdnull.IntDomain("b", "b", 4), fdnull.IntDomain("c", "c", 4)})
	r := fdnull.MustFromRows(s,
		[]string{"-", "b1", "c1"},
		[]string{"a1", "b1", "c2"},
		[]string{"a2", "b1", "c3"})
	f := fdnull.MustParseFD(s, "A,B -> C")
	v, _ := fdnull.Evaluate(f, r, 0)
	fmt.Println(v)
	// Output: false [F2]
}

// The NS-rules substitute exactly the nulls the dependencies force: with
// A → B and two tuples sharing A, the unknown B must equal the known one.
func ExampleChase() {
	s := fdnull.UniformScheme("R", []string{"A", "B"}, fdnull.IntDomain("d", "v", 9))
	r := fdnull.MustFromRows(s,
		[]string{"v1", "v2"},
		[]string{"v1", "-"})
	fds := fdnull.MustParseFDs(s, "A -> B")
	res, _ := fdnull.Chase(r, fds, fdnull.ChaseOptions{})
	fmt.Print(res.Relation)
	// Output:
	// A   B
	// v1  v2
	// v1  v2
}

// Weak satisfiability is decided polynomially by the extended chase
// (Theorem 4b): the Section 6 example is rejected because its two FDs
// admit no common completion.
func ExampleWeaklySatisfiable() {
	s := fdnull.UniformScheme("R", []string{"A", "B", "C"}, fdnull.IntDomain("d", "v", 9))
	r := fdnull.MustFromRows(s,
		[]string{"v1", "-", "v1"},
		[]string{"v1", "-", "v2"})
	fds := fdnull.MustParseFDs(s, "A -> B; B -> C")
	ok, _, _ := fdnull.WeaklySatisfiable(r, fds)
	fmt.Println(ok)
	// Output: false
}

// Armstrong derivations are first-class, checkable proof objects.
func ExampleDerive() {
	s := fdnull.UniformScheme("R", []string{"A", "B", "C"}, fdnull.IntDomain("d", "v", 2))
	fds := fdnull.MustParseFDs(s, "A -> B; B -> C")
	d, ok := fdnull.Derive(fds, fdnull.MustParseFD(s, "A -> C"))
	fmt.Println(ok, d.Verify() == nil, len(d.Steps) > 0)
	// Output: true true true
}

// The Section 2 query example: "Is John married?" is unknown on a null,
// but "Is John married or single?" is true — the least extension sees
// that every substitution answers yes.
func ExampleSelect() {
	ms, _ := fdnull.NewDomain("marital", "married", "single")
	s, _ := fdnull.NewScheme("R", []string{"name", "ms"},
		[]*fdnull.Domain{fdnull.IntDomain("n", "p", 4), ms})
	r := fdnull.MustFromRows(s, []string{"p1", "-"})
	a := s.MustAttr("ms")
	q := fdnull.Eq{Attr: a, Const: "married"}
	qp := fdnull.In{Attr: a, Values: []string{"married", "single"}}
	fmt.Println(q.Eval(s, r.Tuple(0)), qp.Eval(s, r.Tuple(0)))
	// Output: unknown true
}

// The FD-aware read path: the store keeps its instance chase-normalized,
// so a value the dependencies force turns a merely possible answer into
// a certain one; the indexed planner serves it from a partition probe.
func ExampleStore_Query() {
	s := fdnull.UniformScheme("R", []string{"E", "SL"}, fdnull.IntDomain("d", "s", 9))
	fds := fdnull.MustParseFDs(s, "E -> SL")
	st := fdnull.NewStore(s, fds)
	_ = st.InsertRow("s1", "s7")
	_ = st.InsertRow("s2", "-") // salary unknown: only a possible answer
	q := fdnull.Eq{Attr: s.MustAttr("SL"), Const: "s7"}
	res := st.Query(q)
	fmt.Println("sure:", res.Sure, "maybe:", res.Maybe)
	// A second tuple for s2 lets E -> SL decide the null in place; the
	// next query probes the index that write kept fresh, and the maybe
	// becomes sure.
	_ = st.InsertRow("s2", "s7")
	res = st.Query(q)
	fmt.Println("sure:", res.Sure, "maybe:", res.Maybe)
	// Output:
	// sure: [0] maybe: [1]
	// sure: [0 1 2] maybe: []
}

// TEST-FDs under the strong convention (Theorem 2): a null that could be
// substituted to disagree makes strong satisfaction fail, with a witness
// pair.
func ExampleTestFDs() {
	s := fdnull.UniformScheme("R", []string{"A", "B"}, fdnull.IntDomain("d", "v", 9))
	r := fdnull.MustFromRows(s,
		[]string{"v1", "-"},
		[]string{"v1", "v2"})
	fds := fdnull.MustParseFDs(s, "A -> B")
	okStrong, viol := fdnull.TestFDs(r, fds, fdnull.StrongConvention, fdnull.SortedScan)
	okWeak, _ := fdnull.TestFDs(r, fds, fdnull.WeakConvention, fdnull.SortedScan)
	fmt.Println(okStrong, viol.T1, viol.T2, okWeak)
	// Output: false 0 1 true
}

// The batched engine evaluates a whole FD set at once: the relation is
// partitioned by each distinct left-hand side, and the tuples×FDs grid is
// spread over a worker pool. Workers is pinned to 1 only to keep the
// example deterministic.
func ExampleCheckAll() {
	s := fdnull.UniformScheme("R", []string{"A", "B", "C"}, fdnull.IntDomain("d", "v", 4))
	r := fdnull.MustFromRows(s,
		[]string{"v1", "v2", "v3"},
		[]string{"v3", "v2", "v3"},
		[]string{"v2", "v2", "v4"})
	fds := fdnull.MustParseFDs(s, "A -> B; B -> C")
	res := fdnull.CheckAll(fds, r, fdnull.CheckOptions{Workers: 1})
	for _, sum := range res.Summaries {
		fmt.Printf("%s: strong=%v\n", sum.FD.Format(s), sum.StrongHolds)
	}
	// Output:
	// A -> B: strong=true
	// B -> C: strong=false
}

// Discovery inverts checking: mine the minimal FDs that hold in the
// data. Every lattice candidate is answered from cached stripped
// partitions, a level's candidates fanned over the worker pool.
func ExampleDiscoverFDs() {
	s := fdnull.UniformScheme("R", []string{"A", "B", "C"}, fdnull.IntDomain("d", "v", 4))
	r := fdnull.MustFromRows(s,
		[]string{"v1", "v1", "v1"},
		[]string{"v2", "v1", "v1"},
		[]string{"v3", "v2", "v1"})
	fds, err := fdnull.DiscoverFDs(r, fdnull.DiscoverOptions{
		MaxLHS:  2,
		Workers: 2,
	})
	if err != nil {
		panic(err)
	}
	fmt.Println(fdnull.FormatFDs(s, fds))
	// Output:
	// A -> B; A -> C; B -> C
}

// A guarded store keeps its instance minimally incomplete: doomed
// mutations are rejected, forced nulls are substituted (internal
// acquisition), and the incremental maintenance engine does both at
// O(affected group) per write. O(1) views snapshot the instance for
// readers without cloning.
func ExampleNewStore() {
	s, _ := fdnull.NewScheme("R", []string{"E#", "D#", "CT"},
		[]*fdnull.Domain{
			fdnull.IntDomain("emp", "e", 9),
			fdnull.IntDomain("dept", "d", 9),
			fdnull.IntDomain("ct", "ct", 9),
		})
	fds := fdnull.MustParseFDs(s, "E# -> D#; D# -> CT")
	st := fdnull.NewStore(s, fds)

	_ = st.InsertRow("e1", "d1", "ct1")
	_ = st.InsertRow("e2", "d1", "-")      // CT unknown, but d1 forces ct1
	view := st.View()                      // O(1) copy-on-write snapshot
	err := st.InsertRow("e3", "d1", "ct2") // contradicts D# -> CT

	fmt.Println("e2 contract:", st.Tuple(1)[s.MustAttr("CT")])
	fmt.Println("rejected:", err != nil)
	fmt.Println("view still has", view.Len(), "tuples")
	// Output:
	// e2 contract: ct1
	// rejected: true
	// view still has 2 tuples
}

// ExampleTxn shows the transactional write path: a department's worth
// of rows whose nulls resolve against each other is staged and
// committed as ONE write-set — one batched constraint check instead of
// one per row — with a savepoint discarding a doomed sub-batch, and an
// atomic rejection identifying the offending staged op.
func ExampleTxn() {
	s := fdnull.UniformScheme("EMP",
		[]string{"E#", "D#", "CT"},
		fdnull.IntDomain("dom", "v", 60))
	fds := fdnull.MustParseFDs(s, "E# -> D#; D# -> CT")
	st := fdnull.NewStore(s, fds)

	tx := st.Begin()
	_ = tx.InsertRow("v1", "v9", "-")   // contract unknown
	_ = tx.InsertRow("v2", "v9", "v20") // fixes department v9's contract
	sp := tx.Save()
	_ = tx.InsertRow("v3", "v9", "v21") // would contradict D# -> CT
	_ = tx.RollbackTo(sp)               // ...discarded before commit
	fmt.Println("commit:", tx.Commit())
	fmt.Println("t1 contract:", st.Tuple(0)[s.MustAttr("CT")])

	// A doomed write-set is rejected atomically; the error names the
	// offending staged op and matches the ErrInconsistent sentinel.
	tx2 := st.Begin()
	_ = tx2.InsertRow("v4", "v10", "v22")
	_ = tx2.InsertRow("v5", "v9", "v21") // restates v9's contract
	err := tx2.Commit()
	fmt.Println("inconsistent:", errors.Is(err, fdnull.ErrInconsistent))
	var terr *fdnull.TxnError
	if errors.As(err, &terr) {
		fmt.Println("offending op:", terr.Op)
	}
	fmt.Println("tuples:", st.Len())
	// Output:
	// commit: <nil>
	// t1 contract: v20
	// inconsistent: true
	// offending op: 1
	// tuples: 2
}

// ExampleOpenDurableStore shows the durable write path: the handle is a
// Store whose commits are write-ahead logged to a directory,
// the process "dies", and reopening the directory recovers the exact
// committed state — accepted rows, resolved nulls, and the fresh-mark
// allocator watermark included.
func ExampleOpenDurableStore() {
	dir, _ := os.MkdirTemp("", "fdnull-durable-*")
	defer os.RemoveAll(dir)

	s := fdnull.UniformScheme("EMP",
		[]string{"E#", "D#", "CT"},
		fdnull.IntDomain("dom", "v", 60))
	fds := fdnull.MustParseFDs(s, "E# -> D#; D# -> CT")
	opts := fdnull.DurableOptions{
		Scheme:      s,
		FDs:         fds,
		GroupCommit: 8, // fsync every 8 commits instead of every commit
	}

	d, _ := fdnull.OpenDurableStore(dir, opts)
	_ = d.InsertRow("v1", "v9", "-")   // contract unknown
	_ = d.InsertRow("v2", "v9", "v20") // fixes department v9's contract
	tx := d.Begin()
	_ = tx.InsertRow("v3", "v10", "v21")
	_ = tx.InsertRow("v4", "v10", "-")
	fmt.Println("txn commit:", tx.Commit())
	_ = d.Close() // flushes the group-commit window

	re, _ := fdnull.OpenDurableStore(dir, fdnull.DurableOptions{})
	snap := re.View() // reads go through O(1) snapshots
	fmt.Println("recovered tuples:", snap.Len())
	fmt.Println("t1 contract:", snap.Tuple(0)[s.MustAttr("CT")])
	fmt.Println("t4 contract:", snap.Tuple(3)[s.MustAttr("CT")])
	// A selection runs on the live handle, under its read lock.
	res := re.Query(fdnull.Eq{Attr: s.MustAttr("D#"), Const: "v9"})
	fmt.Println("department v9: sure", res.Sure, "maybe", res.Maybe)
	_ = re.Close()
	// Output:
	// txn commit: <nil>
	// recovered tuples: 4
	// t1 contract: v20
	// t4 contract: v21
	// department v9: sure [0 1] maybe []
}

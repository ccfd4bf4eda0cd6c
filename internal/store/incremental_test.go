package store

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"fdnull/internal/fd"
	"fdnull/internal/relation"
	"fdnull/internal/schema"
	"fdnull/internal/value"
)

// TestMaintenanceFlag: a manifest's engine lines accept exactly what
// every version writes — "maintenance incremental", "xrules false" —
// and refuse any other engine or X-rules spelling.
func TestMaintenanceFlag(t *testing.T) {
	for _, tc := range []struct {
		maintenance, xrules string
		ok                  bool
	}{
		{"incremental", "false", true},
		{"recheck", "false", false},
		{"bogus", "false", false},
		{"incremental", "true", false},
		{"incremental", "0", false},
	} {
		data := fmt.Sprintf("fdwal 1\nmaintenance %s\nxrules %s\ncheckpoint %s\nckptseq 3\n", tc.maintenance, tc.xrules, ckptName(3))
		m, err := parseManifest(data)
		if (err == nil) != tc.ok {
			t.Errorf("maintenance %s, xrules %s: parse error %v, want ok=%t", tc.maintenance, tc.xrules, err, tc.ok)
		}
		if tc.ok && m.render() != data {
			t.Errorf("render round trip: %q != %q", m.render(), data)
		}
	}
}

// TestIncrementalNECPropagation pins the internal-acquisition semantics
// on the incremental path directly: shared unknown contracts are linked
// into one class, and learning one value fixes every member in place.
func TestIncrementalNECPropagation(t *testing.T) {
	st := employeeStore(engIncremental)
	for _, row := range [][]string{
		{"e1", "s1", "d3", "-"},
		{"e2", "s2", "d3", "-"},
		{"e3", "s3", "d3", "-"},
	} {
		if err := st.InsertRow(row...); err != nil {
			t.Fatal(err)
		}
	}
	ct := st.Scheme().MustAttr("CT")
	m := st.Tuple(0)[ct]
	for i := 1; i < 3; i++ {
		if got := st.Tuple(i)[ct]; !got.Identical(m) {
			t.Fatalf("CT nulls must share one class: %s vs %s", m, got)
		}
	}
	if err := st.Update(1, ct, value.NewConst("ct2")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if got := st.Tuple(i)[ct]; !got.IsConst() || got.Const() != "ct2" {
			t.Fatalf("tuple %d CT = %s, want ct2 (class substitution)", i, got)
		}
	}
}

// TestIncrementalRejectCarriesChaseWitness: the incremental engine
// delegates rejections to the recheck path, so the error is the same
// InconsistencyError with a full chase witness.
func TestIncrementalRejectCarriesChaseWitness(t *testing.T) {
	st := employeeStore(engIncremental)
	if err := st.InsertRow("e1", "s1", "d1", "ct1"); err != nil {
		t.Fatal(err)
	}
	err := st.InsertRow("e1", "s2", "d1", "ct1")
	var ierr *InconsistencyError
	if !errors.As(err, &ierr) {
		t.Fatalf("want InconsistencyError, got %v", err)
	}
	if ierr.Chase == nil || ierr.Chase.Consistent {
		t.Fatal("rejection must carry the chase contradiction witness")
	}
	if st.Len() != 1 || !st.CheckWeak() {
		t.Fatalf("store must be unchanged after rejection:\n%s", st.Snapshot())
	}
	if _, _, _, rejected := st.Stats(); rejected != 1 {
		t.Fatalf("rejected = %d, want 1", rejected)
	}
	// A cascading rejection: the conflict is only reachable through a
	// null-class substitution, so no single group sweep sees it up
	// front — the propagation itself must catch it and roll back.
	st2 := employeeStore(engIncremental)
	for _, row := range [][]string{
		{"e1", "s1", "d1", "-"},
		{"e2", "s2", "d2", "ct2"},
	} {
		if err := st2.InsertRow(row...); err != nil {
			t.Fatal(err)
		}
	}
	// e3 shares d1's unknown contract and pins it to ct1; then moving e3
	// into d2 would force ct1 = ct2 through two hops.
	if err := st2.InsertRow("e3", "s3", "d1", "ct1"); err != nil {
		t.Fatal(err)
	}
	d := st2.Scheme().MustAttr("D#")
	before := st2.Snapshot()
	if err := st2.Update(2, d, value.NewConst("d2")); err == nil {
		t.Fatal("two-hop contradiction must be rejected")
	}
	if !relation.Equal(before, st2.Snapshot()) {
		t.Fatalf("rollback failed:\nbefore:\n%s\nafter:\n%s", before, st2.Snapshot())
	}
}

func TestFromRelation(t *testing.T) {
	s := schema.MustNew("R",
		[]string{"A", "B"},
		[]*schema.Domain{schema.IntDomain("da", "a", 4), schema.IntDomain("db", "b", 4)})
	fds := fd.MustParseSet(s, "A -> B")
	good := relation.MustFromRows(s, []string{"a1", "b1"}, []string{"a2", "-"})
	st, err := FromRelation(s, fds, good)
	if err != nil || st.Len() != 2 {
		t.Fatalf("FromRelation: %v (len %d)", err, st.Len())
	}
	if !st.CheckWeak() {
		t.Fatal("loaded store must satisfy the invariant")
	}
	bad := relation.MustFromRows(s, []string{"a1", "b1"}, []string{"a1", "b2"})
	if _, err := FromRelation(s, fds, bad); err == nil {
		t.Fatal("contradictory instance must be rejected")
	}
	if good.Len() != 2 {
		t.Fatal("FromRelation must not consume the input relation")
	}
}

// TestIncrementalFreshMarkParity: the fresh-null allocator must behave
// exactly like the recheck engine's — monotone, restored over the chase
// rebuild's reset — otherwise histories diverge on the marks of later
// nulls.
func TestIncrementalFreshMarkParity(t *testing.T) {
	inc, rec := employeeStore(engIncremental), employeeStore(engRecheck)
	ops := func(st *Store) []string {
		var trace []string
		check := func(err error) {
			if err != nil {
				trace = append(trace, "err:"+err.Error())
			}
		}
		check(st.InsertRow("e1", "-", "d1", "-"))
		check(st.InsertRow("e2", "s2", "d1", "ct1")) // binds e1's CT null
		check(st.Delete(0))
		check(st.InsertRow("e3", "-", "d2", "-"))
		trace = append(trace, "fresh:"+st.FreshNull().String())
		// An explicit marked null far above the allocator: it survives (no
		// rule touches e2's unique SL), so both engines must jump the
		// allocator over it identically.
		check(st.Update(0, st.Scheme().MustAttr("SL"), value.NewNull(50)))
		trace = append(trace, "fresh:"+st.FreshNull().String())
		// And one that is substituted away before it can survive: e4 pins
		// d2's contract, so writing ⊥90 over e3's CT is immediately forced
		// back to the constant and the big mark must NOT advance the
		// allocator in either engine.
		check(st.InsertRow("e4", "s4", "d2", "ct2"))
		check(st.Update(1, st.Scheme().MustAttr("CT"), value.NewNull(90)))
		trace = append(trace, "fresh:"+st.FreshNull().String())
		return trace
	}
	ti, tr := ops(inc), ops(rec)
	if strings.Join(ti, ";") != strings.Join(tr, ";") {
		t.Fatalf("allocator traces diverged:\nincremental: %v\nrecheck:     %v", ti, tr)
	}
	if !relation.Equal(inc.Snapshot(), rec.Snapshot()) {
		t.Fatalf("states diverged:\n%s\nvs\n%s", inc.Snapshot(), rec.Snapshot())
	}
}

// TestFreshNullNeverRecycled: a mark handed out by FreshNull (possibly
// not yet stored) must never be re-issued after an interleaved accepted
// mutation — recycling would silently alias two unrelated unknowns into
// one null-equivalence class. Both engines keep the allocator monotone.
func TestFreshNullNeverRecycled(t *testing.T) {
	for _, m := range bothEngines {
		st := employeeStore(m)
		held := st.FreshNull() // handed out, not yet stored
		if err := st.InsertRow("e2", "s2", "d2", "ct2"); err != nil {
			t.Fatal(err)
		}
		ct := st.Scheme().MustAttr("CT")
		if err := st.Update(0, ct, st.FreshNull()); err != nil {
			t.Fatal(err)
		}
		if got := st.Tuple(0)[ct]; got.IsNull() && got.Mark() == held.Mark() {
			t.Fatalf("[%s] held mark %d was recycled into the store", m, held.Mark())
		}
		// Storing the held mark later must not alias it with anything.
		if err := st.Update(0, st.Scheme().MustAttr("SL"), held); err != nil {
			t.Fatal(err)
		}
		sl := st.Tuple(0)[st.Scheme().MustAttr("SL")]
		if !sl.IsNull() || sl.Mark() != held.Mark() {
			t.Fatalf("[%s] held mark %d lost its identity: %s", m, held.Mark(), sl)
		}
	}
}

// TestNothingInsertRejectedByBothEngines: a tuple carrying the
// inconsistent element admits no completion, so both engines must
// reject it identically — the incremental path routes it to the recheck
// chase, which poisons the cell.
func TestNothingInsertRejectedByBothEngines(t *testing.T) {
	for _, m := range bothEngines {
		st := employeeStore(m)
		if err := st.InsertRow("e1", "s1", "d1", "ct1"); err != nil {
			t.Fatal(err)
		}
		err := st.InsertRow("e2", "s2", "!", "ct2")
		var ierr *InconsistencyError
		if !errors.As(err, &ierr) {
			t.Fatalf("[%s] nothing-bearing insert must be rejected with a witness, got %v", m, err)
		}
		if st.Len() != 1 || !st.CheckWeak() {
			t.Fatalf("[%s] store mutated by a rejected nothing insert:\n%s", m, st.Snapshot())
		}
		if _, _, _, rejected := st.Stats(); rejected != 1 {
			t.Fatalf("[%s] rejected = %d, want 1", m, rejected)
		}
		if err := st.Insert(relation.Tuple{
			value.NewConst("e3"), value.NewConst("s3"), value.NewNothing(), value.NewConst("ct1"),
		}); err == nil {
			t.Fatalf("[%s] Insert with an explicit nothing cell must be rejected", m)
		}
		if st.Len() != 1 {
			t.Fatalf("[%s] store mutated", m)
		}
	}
}

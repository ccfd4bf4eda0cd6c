package store

import (
	"errors"
	"math/rand"
	"testing"

	"fdnull/internal/chase"
	"fdnull/internal/eval"
	"fdnull/internal/fd"
	"fdnull/internal/relation"
	"fdnull/internal/schema"
	"fdnull/internal/value"
)

// engine names a leg of the differential tests: the production
// incremental engine, or the recheck oracle. NewRecheckOracle is the
// oracle's one exported constructor; on puts a store of any shape —
// in memory, sharded, durable — on it through the unexported
// flag, so each leg runs the same assertions on both.
type engine bool

const (
	engIncremental engine = false
	engRecheck     engine = true
)

var bothEngines = []engine{engIncremental, engRecheck}

func (e engine) String() string {
	if e {
		return "recheck"
	}
	return "incremental"
}

// on puts st on engine e and returns it.
func (e engine) on(st *Store) *Store {
	st.recheck = bool(e)
	return st
}

// onSharded puts every shard of sh on engine e.
func (e engine) onSharded(sh *Sharded) *Sharded {
	for _, c := range sh.shards {
		e.on(c)
	}
	return sh
}

func employeeStore(e engine) *Store {
	s := schema.MustNew("R",
		[]string{"E#", "SL", "D#", "CT"},
		[]*schema.Domain{
			schema.IntDomain("emp#", "e", 20),
			schema.IntDomain("salary", "s", 20),
			schema.IntDomain("dept#", "d", 8),
			schema.IntDomain("contract", "ct", 3),
		})
	return e.on(New(s, fd.MustParseSet(s, "E# -> SL,D#; D# -> CT"), Options{}))
}

func TestInsertTupleAndErrorText(t *testing.T) {
	st := employeeStore(engIncremental)
	tup := relation.Tuple{
		value.NewConst("e1"), value.NewConst("s1"),
		value.NewConst("d1"), value.NewConst("ct1"),
	}
	if err := st.Insert(tup); err != nil {
		t.Fatal(err)
	}
	if err := st.Insert(relation.Tuple{value.NewConst("e1")}); err == nil {
		t.Error("arity mismatch must error")
	}
	bad := relation.Tuple{
		value.NewConst("e1"), value.NewConst("s2"),
		value.NewConst("d1"), value.NewConst("ct1"),
	}
	err := st.Insert(bad)
	var ierr *InconsistencyError
	if !errors.As(err, &ierr) {
		t.Fatalf("expected InconsistencyError, got %v", err)
	}
	if ierr.Error() == "" || ierr.Op != "insert" {
		t.Errorf("error text: %q op %q", ierr.Error(), ierr.Op)
	}
	if len(st.FDs()) != 2 {
		t.Error("FDs accessor")
	}
}

func TestInsertAndInternalAcquisition(t *testing.T) {
	st := employeeStore(engIncremental)
	if err := st.InsertRow("e1", "s1", "d1", "ct1"); err != nil {
		t.Fatal(err)
	}
	// e2's contract type is unknown, but d1 is already tied to ct1: the
	// NS-rules substitute it (internal acquisition).
	if err := st.InsertRow("e2", "s2", "d1", "-"); err != nil {
		t.Fatal(err)
	}
	ct := st.Scheme().MustAttr("CT")
	got := st.Tuple(1)[ct]
	if !got.IsConst() || got.Const() != "ct1" {
		t.Errorf("CT of e2 = %v, want ct1 (forced by D# -> CT)", got)
	}
	if !st.CheckWeak() {
		t.Error("store invariant: always weakly satisfiable")
	}
}

func TestInsertRejectedOnContradiction(t *testing.T) {
	st := employeeStore(engIncremental)
	if err := st.InsertRow("e1", "s1", "d1", "ct1"); err != nil {
		t.Fatal(err)
	}
	// e1 again with a different salary: E# -> SL is violated with no
	// escape; the insert must be rejected and the store unchanged.
	err := st.InsertRow("e1", "s2", "d1", "ct1")
	var ierr *InconsistencyError
	if !errors.As(err, &ierr) {
		t.Fatalf("expected InconsistencyError, got %v", err)
	}
	if ierr.Chase == nil || ierr.Chase.Consistent {
		t.Error("the error must carry the contradiction witness")
	}
	if st.Len() != 1 {
		t.Errorf("store must be unchanged after rejection, Len=%d", st.Len())
	}
	_, _, _, rejected := st.Stats()
	if rejected != 1 {
		t.Errorf("rejected counter = %d", rejected)
	}
}

func TestInsertConflictingContractRejected(t *testing.T) {
	st := employeeStore(engIncremental)
	if err := st.InsertRow("e1", "s1", "d1", "ct1"); err != nil {
		t.Fatal(err)
	}
	// d1 is tied to ct1 through e1; a new employee claiming ct2 in d1
	// contradicts D# -> CT.
	if err := st.InsertRow("e2", "s2", "d1", "ct2"); err == nil {
		t.Fatal("conflicting contract type must be rejected")
	}
	if st.Len() != 1 {
		t.Error("store must be unchanged")
	}
}

func TestUpdateNullToConstant(t *testing.T) {
	st := employeeStore(engIncremental)
	if err := st.InsertRow("e1", "-", "d1", "ct1"); err != nil {
		t.Fatal(err)
	}
	sl := st.Scheme().MustAttr("SL")
	if err := st.Update(0, sl, value.NewConst("s5")); err != nil {
		t.Fatal(err)
	}
	if got := st.Tuple(0)[sl]; !got.IsConst() || got.Const() != "s5" {
		t.Errorf("SL = %v", got)
	}
	_, updates, _, _ := st.Stats()
	if updates != 1 {
		t.Error("update counter")
	}
}

func TestUpdateRejectedOnViolation(t *testing.T) {
	st := employeeStore(engIncremental)
	if err := st.InsertRow("e1", "s1", "d1", "ct1"); err != nil {
		t.Fatal(err)
	}
	if err := st.InsertRow("e2", "s2", "d2", "ct2"); err != nil {
		t.Fatal(err)
	}
	// Moving e2 into d1 while keeping ct2 contradicts D# -> CT.
	d := st.Scheme().MustAttr("D#")
	if err := st.Update(1, d, value.NewConst("d1")); err == nil {
		t.Fatal("update creating a D#->CT conflict must be rejected")
	}
	if got := st.Tuple(1)[d]; got.Const() != "d2" {
		t.Error("store must be unchanged after rejected update")
	}
	// Retracting the contract type first makes the move legal; the
	// chase then fills ct1 back in.
	ct := st.Scheme().MustAttr("CT")
	if err := st.Update(1, ct, st.FreshNull()); err != nil {
		t.Fatal(err)
	}
	if err := st.Update(1, d, value.NewConst("d1")); err != nil {
		t.Fatal(err)
	}
	if got := st.Tuple(1)[ct]; !got.IsConst() || got.Const() != "ct1" {
		t.Errorf("CT after move = %v, want ct1 (internal acquisition)", got)
	}
}

func TestUpdateValidation(t *testing.T) {
	st := employeeStore(engIncremental)
	if err := st.InsertRow("e1", "s1", "d1", "ct1"); err != nil {
		t.Fatal(err)
	}
	if err := st.Update(5, 0, value.NewConst("e2")); err == nil {
		t.Error("out-of-range tuple must error")
	}
	if err := st.Update(0, 99, value.NewConst("e2")); err == nil {
		t.Error("out-of-range attribute must error")
	}
	if err := st.Update(0, 0, value.NewNothing()); err == nil {
		t.Error("storing nothing must error")
	}
	if err := st.Update(0, 0, value.NewConst("zzz")); err == nil {
		t.Error("out-of-domain constant must error")
	}
}

func TestDelete(t *testing.T) {
	st := employeeStore(engIncremental)
	if err := st.InsertRow("e1", "s1", "d1", "ct1"); err != nil {
		t.Fatal(err)
	}
	if err := st.InsertRow("e2", "s2", "d2", "ct2"); err != nil {
		t.Fatal(err)
	}
	if err := st.Delete(0); err != nil {
		t.Fatal(err)
	}
	if st.Len() != 1 || st.Tuple(0)[0].Const() != "e2" {
		t.Error("delete removed the wrong tuple")
	}
	if err := st.Delete(7); err == nil {
		t.Error("out-of-range delete must error")
	}
}

func TestNECAcrossInserts(t *testing.T) {
	// Two employees in the same unknown-contract department: their CT
	// nulls must be linked (same canonical mark) by the NS-rules.
	st := employeeStore(engIncremental)
	if err := st.InsertRow("e1", "s1", "d3", "-"); err != nil {
		t.Fatal(err)
	}
	if err := st.InsertRow("e2", "s2", "d3", "-"); err != nil {
		t.Fatal(err)
	}
	ct := st.Scheme().MustAttr("CT")
	a, b := st.Tuple(0)[ct], st.Tuple(1)[ct]
	if !a.IsNull() || !b.IsNull() || a.Mark() != b.Mark() {
		t.Errorf("CT nulls must share a class: %v vs %v", a, b)
	}
	// Learning one fixes both.
	if err := st.Update(0, ct, value.NewConst("ct2")); err != nil {
		t.Fatal(err)
	}
	if got := st.Tuple(1)[ct]; !got.IsConst() || got.Const() != "ct2" {
		t.Errorf("NEC propagation on update: %v", got)
	}
}

func TestXRulesOption(t *testing.T) {
	// The Section 4 X-side rules are not part of the store's invariant:
	// a determinant null the domain forces survives in the store, and
	// chase.ApplyXSubstitutions completes it on the stored instance
	// (Section 4 condition 2).
	s := schema.MustNew("R", []string{"A", "B", "C"}, []*schema.Domain{
		schema.MustDomain("domA", "a1", "a2"),
		schema.IntDomain("domB", "b", 4),
		schema.IntDomain("domC", "c", 4),
	})
	fds := fd.MustParseSet(s, "A,B -> C")
	st := New(s, fds, Options{})
	if err := st.InsertRow("a1", "b1", "c2"); err != nil {
		t.Fatal(err)
	}
	// (-, b1, c1): a1 is present and disagrees on C; the only other
	// completion is a2 ⇒ the X-rules make the null a2.
	if err := st.InsertRow("-", "b1", "c1"); err != nil {
		t.Fatal(err)
	}
	a := st.Scheme().MustAttr("A")
	if got := st.Tuple(1)[a]; !got.IsNull() {
		t.Errorf("the store must not run the X-rules: A = %v, want a null", got)
	}
	next, subs, err := chase.ApplyXSubstitutions(st.Snapshot(), fds)
	if err != nil {
		t.Fatal(err)
	}
	if got := next.Tuple(1)[a]; len(subs) != 1 || !got.IsConst() || got.Const() != "a2" {
		t.Errorf("A = %v after %d X-substitutions, want a2 (X-side condition 2)", got, len(subs))
	}
}

func TestCheckStrong(t *testing.T) {
	st := employeeStore(engIncremental)
	_ = st.InsertRow("e1", "s1", "d1", "ct1")
	if !st.CheckStrong() {
		t.Error("complete instance should be strong")
	}
	// A null in the determinant D# may be substituted to collide with d1
	// while the contract types differ: not strongly satisfied. (Note a
	// null under a *unique* determinant would stay strong — case [T2] —
	// and the chase links same-department nulls into one class, so the
	// determined side rarely breaks strength in a chased store.)
	_ = st.InsertRow("e2", "s2", "-", "ct2")
	if st.CheckStrong() {
		t.Error("a determinant null with a conflicting CT is not strong")
	}
	if !st.CheckWeak() {
		t.Error("still weakly satisfiable")
	}
}

func TestStoreInvariantRandomOps(t *testing.T) {
	// Failure-injection soak: random inserts/updates/deletes, some
	// doomed; the invariant (weak satisfiability, ground truth) must
	// survive every accepted mutation.
	rng := rand.New(rand.NewSource(20250612))
	st := employeeStore(engIncremental)
	s := st.Scheme()
	randVal := func(a schema.Attr) string {
		d := s.Domain(a)
		if rng.Intn(4) == 0 {
			return "-"
		}
		return d.Values[rng.Intn(d.Size())]
	}
	for op := 0; op < 200; op++ {
		switch {
		case st.Len() == 0 || rng.Intn(3) == 0:
			_ = st.InsertRow(
				randVal(0), randVal(1), randVal(2), randVal(3))
		case rng.Intn(2) == 0 && st.Len() > 0:
			ti := rng.Intn(st.Len())
			a := schema.Attr(rng.Intn(s.Arity()))
			var v value.V
			if rng.Intn(4) == 0 {
				v = st.FreshNull()
			} else {
				d := s.Domain(a)
				v = value.NewConst(d.Values[rng.Intn(d.Size())])
			}
			_ = st.Update(ti, a, v)
		default:
			_ = st.Delete(rng.Intn(st.Len()))
		}
		// Invariant: the stored instance is weakly satisfiable both by
		// TEST-FDs and (on small instances) by the exponential ground
		// truth.
		if !st.CheckWeak() {
			t.Fatalf("op %d: invariant broken:\n%s", op, st.Snapshot())
		}
		if st.Len() <= 4 && st.Snapshot().NullCount() <= 4 {
			ok, err := eval.WeakSatisfied(st.FDs(), st.Snapshot())
			if err == nil && !ok {
				t.Fatalf("op %d: ground truth disagrees:\n%s", op, st.Snapshot())
			}
		}
	}
	ins, ups, dels, rej := st.Stats()
	if ins+ups+dels == 0 {
		t.Error("soak performed no accepted operations")
	}
	if rej == 0 {
		t.Error("soak should have rejected some doomed mutations")
	}
	_ = relation.Tuple{}
}

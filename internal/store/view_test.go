package store

import (
	"testing"

	"fdnull/internal/relation"
)

// TestReadPathAllocations is the allocation regression for the read
// views: Tuple/Snapshot clone (by design), but Each and View must not
// allocate per call — the fix for read-only iteration paying a deep copy
// per tuple.
func TestReadPathAllocations(t *testing.T) {
	st := employeeStore(engIncremental)
	for _, row := range [][]string{
		{"e1", "s1", "d1", "ct1"},
		{"e2", "s2", "d2", "-"},
		{"e3", "s3", "d1", "ct1"},
	} {
		if err := st.InsertRow(row...); err != nil {
			t.Fatal(err)
		}
	}

	cells := 0
	each := func(i int, tup relation.Tuple) bool {
		cells += len(tup)
		return true
	}
	if n := testing.AllocsPerRun(200, func() {
		st.Each(each)
	}); n != 0 {
		t.Errorf("Each allocates %.1f per full iteration, want 0", n)
	}
	if cells == 0 {
		t.Fatal("Each visited nothing")
	}

	if n := testing.AllocsPerRun(200, func() {
		_ = st.View()
	}); n != 0 {
		t.Errorf("View allocates %.1f per snapshot, want 0", n)
	}

	// The range-over-func iterators share the no-allocation contract.
	v := st.View()
	if n := testing.AllocsPerRun(200, func() {
		for _, tup := range v.All() {
			cells += len(tup)
		}
	}); n != 0 {
		t.Errorf("View.All allocates %.1f per full iteration, want 0", n)
	}

	// The eager paths still clone — that is their contract.
	if st.Tuple(0)[0] != st.View().Tuple(0)[0] {
		t.Error("Tuple and View disagree")
	}
}

// TestViewUnaffectedByStoreMutation pins the COW contract end-to-end
// through the store: NS-substitutions triggered by later mutations must
// not leak into an earlier view.
func TestViewUnaffectedByStoreMutation(t *testing.T) {
	st := employeeStore(engIncremental)
	if err := st.InsertRow("e1", "s1", "d3", "-"); err != nil {
		t.Fatal(err)
	}
	v := st.View()
	ct := st.Scheme().MustAttr("CT")
	before := v.Tuple(0)[ct]
	if !before.IsNull() {
		t.Fatalf("CT should start null, got %s", before)
	}
	// Inserting e2 with a known contract forces e1's CT via D# -> CT —
	// an in-place NS-substitution under the incremental engine.
	if err := st.InsertRow("e2", "s2", "d3", "ct1"); err != nil {
		t.Fatal(err)
	}
	if got := st.Tuple(0)[ct]; !got.IsConst() || got.Const() != "ct1" {
		t.Fatalf("store should have substituted CT, got %s", got)
	}
	if got := v.Tuple(0)[ct]; !got.Identical(before) {
		t.Fatalf("view leaked a later substitution: %s -> %s", before, got)
	}
	if v.Len() != 1 {
		t.Fatalf("view length changed: %d", v.Len())
	}
}

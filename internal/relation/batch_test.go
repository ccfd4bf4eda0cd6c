package relation

import (
	"strings"
	"testing"

	"fdnull/internal/schema"
	"fdnull/internal/value"
)

func TestInsertDeltaBatch(t *testing.T) {
	s := schema.Uniform("R", []string{"A", "B"}, schema.IntDomain("d", "v", 9))
	r := MustFromRows(s, []string{"v1", "v2"})
	ixA := r.IndexOn(s.MustSet("A"))

	first, bad, err := r.InsertDeltaBatch([]Tuple{
		{value.NewConst("v1"), value.NewConst("v3")},
		{value.NewConst("v2"), value.NewNull(7)},
	})
	if err != nil || bad != -1 || first != 1 {
		t.Fatalf("batch insert: first=%d bad=%d err=%v", first, bad, err)
	}
	if r.Len() != 3 {
		t.Fatalf("len = %d", r.Len())
	}
	// The cached index was delta-maintained, not rebuilt: same group
	// content as a fresh build.
	if r.IndexOn(s.MustSet("A")) != ixA {
		t.Fatal("batch insert dropped the warm index")
	}
	rows, ok := ixA.Probe(Tuple{value.NewConst("v1"), value.NewConst("x")})
	if !ok || len(rows) != 2 {
		t.Fatalf("v1 group = %v, %v", rows, ok)
	}
	if nm := r.NextMark(); nm != 8 {
		t.Fatalf("allocator after explicit -7: %d, want 8", nm)
	}
}

func TestInsertDeltaBatchAllOrNothing(t *testing.T) {
	s := schema.Uniform("R", []string{"A", "B"}, schema.IntDomain("d", "v", 9))
	r := MustFromRows(s, []string{"v1", "v2"})
	before := r.String()
	savedMark := r.NextMark()
	ixAll := r.IndexOn(s.All())

	// Position 1 duplicates an existing row; position 2 would duplicate
	// position 0 of the batch itself — both must unwind everything.
	for _, batch := range [][]Tuple{
		{
			{value.NewConst("v3"), value.NewConst("v4")},
			{value.NewConst("v1"), value.NewConst("v2")},
		},
		{
			{value.NewConst("v3"), value.NewConst("v4")},
			{value.NewConst("v5"), value.NewConst("v6")},
			{value.NewConst("v3"), value.NewConst("v4")},
		},
	} {
		_, bad, err := r.InsertDeltaBatch(batch)
		if err == nil || !strings.Contains(err.Error(), "duplicate") {
			t.Fatalf("want duplicate error, got %v", err)
		}
		if bad != len(batch)-1 {
			t.Fatalf("bad = %d, want %d", bad, len(batch)-1)
		}
		if r.Len() != 1 || r.String() != before {
			t.Fatalf("batch failure must unwind:\n%s", r.String())
		}
		if r.NextMark() != savedMark {
			t.Fatalf("allocator leaked: %d != %d", r.NextMark(), savedMark)
		}
	}
	// The unwound index must match a fresh build.
	if got := r.IndexOn(s.All()); got == ixAll {
		// Still cached: probe it for stale batch rows.
		if j := r.FindIdentical(Tuple{value.NewConst("v3"), value.NewConst("v4")}); j >= 0 {
			t.Fatalf("unwound row still findable at %d", j)
		}
	}
	// A domain violation fails validation before anything is appended.
	_, bad, err := r.InsertDeltaBatch([]Tuple{
		{value.NewConst("v2"), value.NewConst("v3")},
		{value.NewConst("nope"), value.NewConst("v3")},
	})
	if err == nil || bad != 1 || r.Len() != 1 {
		t.Fatalf("domain violation: bad=%d err=%v len=%d", bad, err, r.Len())
	}
}

func TestRestoreRewindsToSnapshot(t *testing.T) {
	s := schema.Uniform("R", []string{"A", "B"}, schema.IntDomain("d", "v", 9))
	r := MustFromRows(s, []string{"v1", "v2"}, []string{"v2", "v3"})
	snap := r.View()
	before := r.String()
	v0 := r.Version()
	savedMark := r.NextMark()

	// A speculative multi-row delta: append, overwrite, delete.
	if _, _, err := r.InsertDeltaBatch([]Tuple{{value.NewConst("v5"), r.FreshNull()}}); err != nil {
		t.Fatal(err)
	}
	r.SetCellDelta(0, 1, value.NewConst("v9"))
	r.DeleteDelta(1)

	r.Restore(snap)
	r.SetNextMark(savedMark)
	if r.String() != before {
		t.Fatalf("restore mismatch:\nwant:\n%s\ngot:\n%s", before, r.String())
	}
	if r.Version() <= v0 {
		t.Fatalf("restore must advance the version (%d -> %d)", v0, r.Version())
	}
	// Restored rows are shared with the snapshot: overwriting one must
	// not show through it.
	r.SetCellDelta(0, 0, value.NewConst("v7"))
	if got := snap.Tuple(0)[0]; !got.IsConst() || got.Const() != "v1" {
		t.Fatalf("restore broke copy-on-write: snapshot sees %s", got)
	}
}

func TestBumpVersionIsMonotone(t *testing.T) {
	s := schema.Uniform("R", []string{"A"}, schema.IntDomain("d", "v", 3))
	r := New(s)
	r.BumpVersion(40)
	if got := r.Version(); got != 40 {
		t.Fatalf("version = %d, want 40", got)
	}
	r.BumpVersion(12)
	if got := r.Version(); got != 40 {
		t.Fatalf("BumpVersion must never lower the counter: %d", got)
	}
}

// TestNullInsertAllocsIndependentOfSize pins the duplicate check's cost as
// a count: one null-bearing one-row InsertDeltaBatch (the call the store's
// commit makes for every insert) and its DeleteDelta allocate the same on
// a relation holding 100 null-bearing rows and one holding 10,000.
func TestNullInsertAllocsIndependentOfSize(t *testing.T) {
	s := schema.Uniform("R", []string{"A", "B"}, schema.IntDomain("d", "v", 9))
	allocs := func(n int) float64 {
		r := New(s)
		for i := 0; i < n; i++ {
			r.InsertUnchecked(Tuple{value.NewConst("v1"), r.FreshNull()})
		}
		batch := []Tuple{{value.NewConst("v2"), r.FreshNull()}}
		return testing.AllocsPerRun(50, func() {
			first, _, err := r.InsertDeltaBatch(batch)
			if err != nil {
				t.Fatal(err)
			}
			r.DeleteDelta(first)
		})
	}
	small, large := allocs(100), allocs(10000)
	t.Logf("allocs: %.0f at 100 rows, %.0f at 10,000", small, large)
	if large > small+1 || large < small-1 {
		t.Errorf("insert+delete of a null-bearing row: %.0f allocs at 100 rows, %.0f at 10,000; the duplicate check must not grow with the instance", small, large)
	}
}

// TestFindIdenticalWrongArity: a tuple of the wrong arity is not stored.
func TestFindIdenticalWrongArity(t *testing.T) {
	s := schema.Uniform("R", []string{"A", "B"}, schema.IntDomain("d", "v", 9))
	r := MustFromRows(s, []string{"v1", "v2"})
	for _, tup := range []Tuple{nil, {value.NewConst("v1")}, {value.NewConst("v1"), value.NewConst("v2"), value.NewConst("v3")}} {
		if j := r.FindIdentical(tup); j != -1 {
			t.Errorf("FindIdentical(%s) = %d, want -1", tup, j)
		}
	}
}

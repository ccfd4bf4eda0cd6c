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

// TestUndeleteDeltaInvertsDeleteDelta: a speculative multi-row delta —
// append, overwrite, delete — undone newest-first through the delta
// mutators leaves the rows, their order, every cached index and the
// identity index as they were, whichever row the delete took (the last,
// one the last row moves into, a null-bearing one, one of two true
// duplicates with every identity hash colliding), and a View taken before
// the delete never sees an overwrite of the row that came back.
func TestUndeleteDeltaInvertsDeleteDelta(t *testing.T) {
	s := schema.Uniform("R", []string{"A", "B"}, schema.IntDomain("d", "v", 9))
	sets := []schema.AttrSet{s.MustSet("A"), s.MustSet("B"), s.All()}
	for _, tc := range []struct {
		name      string
		del       int
		duplicate bool // row 0 stored twice, every identity hash colliding
	}{
		{"last row", 3, false},
		{"moved row", 0, false},
		{"null-bearing row", 1, false},
		{"true duplicate", 0, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.duplicate {
				identMask = 0
				defer func() { identMask = ^uint64(0) }()
			}
			r := MustFromRows(s, []string{"v1", "v2"}, []string{"v2", "-"}, []string{"v3", "v3"})
			if tc.duplicate {
				r.InsertUnchecked(r.Tuple(0))
			} else {
				r.MustInsertRow("v4", "-2")
			}
			for _, set := range sets {
				r.IndexOn(set)
			}
			r.FindIdentical(r.Tuple(0)) // builds the identity index
			snap := r.View()
			before, v0, savedMark := r.String(), r.Version(), r.NextMark()
			_, built := r.IndexCounts()

			first, _, err := r.InsertDeltaBatch([]Tuple{{value.NewConst("v5"), r.FreshNull()}})
			if err != nil {
				t.Fatal(err)
			}
			old := r.Tuple(2)[1]
			r.SetCellDelta(2, 1, value.NewConst("v9"))
			gone := r.Tuple(tc.del)
			r.DeleteDelta(tc.del)

			r.UndeleteDelta(tc.del, gone)
			r.SetCellDelta(2, 1, old)
			r.DeleteDelta(first)
			r.SetNextMark(savedMark)

			if r.String() != before {
				t.Fatalf("undo mismatch:\nwant:\n%s\ngot:\n%s", before, r.String())
			}
			if r.Version() <= v0 {
				t.Fatalf("the undo must advance the version (%d -> %d)", v0, r.Version())
			}
			for _, set := range sets {
				if got, want := indexShape(r.IndexOn(set)), indexShape(BuildIndex(r, set)); got != want {
					t.Errorf("index on %s after the undo:\n got %s\nwant %s", s.FormatSet(set), got, want)
				}
			}
			for i, u := range r.Tuples() {
				if j := r.FindIdentical(u); j < 0 || !u.IdenticalOn(r.Tuple(j), s.All()) {
					t.Errorf("FindIdentical(row %d %s) = %d", i, u, j)
				}
			}
			if _, after := r.IndexCounts(); after != built {
				t.Errorf("index builds went %d -> %d; the undo must maintain every index in place", built, after)
			}
			// The row that came back is shared with the snapshot:
			// overwriting it must not show through.
			r.SetCellDelta(tc.del, 0, value.NewConst("v7"))
			if got := snap.Materialize().String(); got != before {
				t.Fatalf("undelete broke copy-on-write: the snapshot reads\n%swas\n%s", got, before)
			}
		})
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

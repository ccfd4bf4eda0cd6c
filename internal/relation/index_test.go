package relation

import (
	"math/rand"
	"testing"

	"fdnull/internal/schema"
	"fdnull/internal/value"
)

func indexTestScheme() *schema.Scheme {
	return schema.Uniform("R", []string{"A", "B", "C"},
		schema.IntDomain("d", "v", 6))
}

// randomIndexInstance builds an instance mixing constants, nulls, and an
// occasional nothing cell.
func randomIndexInstance(rng *rand.Rand, s *schema.Scheme, n int) *Relation {
	r := New(s)
	for i := 0; i < n; i++ {
		t := make(Tuple, s.Arity())
		for a := range t {
			switch rng.Intn(10) {
			case 0:
				t[a] = r.FreshNull()
			case 1:
				t[a] = value.NewNothing()
			default:
				t[a] = value.NewConst(s.Domain(schema.Attr(a)).Values[rng.Intn(6)])
			}
		}
		r.InsertUnchecked(t)
	}
	return r
}

// TestIndexAgreesWithScan cross-checks every probe against the linear scan
// it replaces, for random instances and attribute sets.
func TestIndexAgreesWithScan(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	s := indexTestScheme()
	for trial := 0; trial < 200; trial++ {
		r := randomIndexInstance(rng, s, 1+rng.Intn(12))
		set := schema.AttrSet(1 + rng.Intn(7)) // any non-empty subset of {A,B,C}
		ix := r.IndexOn(set)

		// Sidecars must partition exactly the non-constant tuples.
		wantNull, wantNothing := 0, 0
		for i, tp := range r.Tuples() {
			switch {
			case tp.HasNothingOn(set):
				wantNothing++
			case tp.HasNullOn(set):
				wantNull++
			default:
				rows, ok := ix.Probe(tp)
				if !ok {
					t.Fatalf("trial %d: probe refused a constant tuple %d", trial, i)
				}
				var scan []int
				for j, u := range r.Tuples() {
					if !u.HasNullOn(set) && !u.HasNothingOn(set) && tp.ConstEqOn(u, set) {
						scan = append(scan, j)
					}
				}
				if len(rows) != len(scan) {
					t.Fatalf("trial %d tuple %d: probe %v, scan %v", trial, i, rows, scan)
				}
				for k := range rows {
					if rows[k] != scan[k] {
						t.Fatalf("trial %d tuple %d: probe %v, scan %v", trial, i, rows, scan)
					}
				}
			}
		}
		if len(ix.NullRows()) != wantNull || len(ix.NothingRows()) != wantNothing {
			t.Fatalf("trial %d: sidecars null=%d nothing=%d, want %d/%d",
				trial, len(ix.NullRows()), len(ix.NothingRows()), wantNull, wantNothing)
		}
	}
}

func TestIndexProbeRefusesNonConstant(t *testing.T) {
	s := indexTestScheme()
	r := New(s)
	r.MustInsertRow("v1", "v2", "v3")
	ix := r.IndexOn(s.MustSet("A", "B"))
	withNull := Tuple{value.NewNull(1), value.NewConst("v2"), value.NewConst("v3")}
	if _, ok := ix.Probe(withNull); ok {
		t.Error("probe with a null on the set must report ok=false")
	}
	withNothing := Tuple{value.NewNothing(), value.NewConst("v2"), value.NewConst("v3")}
	if _, ok := ix.Probe(withNothing); ok {
		t.Error("probe with nothing on the set must report ok=false")
	}
}

// TestIndexKeyUnambiguous guards the length-prefixed key encoding: values
// that concatenate identically must land in different groups.
func TestIndexKeyUnambiguous(t *testing.T) {
	s := schema.Uniform("R", []string{"A", "B"},
		schema.MustDomain("d", "a", "ab", "b", "c", "bc"))
	r := New(s)
	r.MustInsertRow("a", "bc") // "a"+"bc" == "ab"+"c" as plain concatenation
	r.MustInsertRow("ab", "c")
	ix := r.IndexOn(s.All())
	if ix.GroupCount() != 2 {
		t.Fatalf("GroupCount = %d, want 2 (key encoding collided)", ix.GroupCount())
	}
}

// TestIndexCacheInvalidation verifies IndexOn caches per set and describes
// the current tuples after every kind of mutation: patched in place by
// Insert and SetCell (the delta forms), rebuilt after the others.
func TestIndexCacheInvalidation(t *testing.T) {
	s := indexTestScheme()
	r := New(s)
	r.MustInsertRow("v1", "v2", "v3")
	set := s.MustSet("A")

	ix1 := r.IndexOn(set)
	if r.IndexOn(set) != ix1 {
		t.Fatal("unchanged relation must return the cached index")
	}

	r.MustInsertRow("v1", "v4", "v5")
	ix2 := r.IndexOn(set)
	if got, want := indexShape(ix2), indexShape(BuildIndex(r, set)); got != want {
		t.Fatalf("after Insert the index must describe the new instance:\n got %s\nwant %s", got, want)
	}
	if rows, _ := ix2.Probe(r.Tuple(0)); len(rows) != 2 {
		t.Fatalf("after insert, group for v1 has %d rows, want 2", len(rows))
	}

	r.SetCell(1, 0, value.NewConst("v2"))
	ix3 := r.IndexOn(set)
	if got, want := indexShape(ix3), indexShape(BuildIndex(r, set)); got != want {
		t.Fatalf("after SetCell the index must describe the new instance:\n got %s\nwant %s", got, want)
	}
	if rows, _ := ix3.Probe(r.Tuple(0)); len(rows) != 1 {
		t.Fatalf("after SetCell, group for v1 has %d rows, want 1", len(rows))
	}

	r.Delete(1)
	ix4 := r.IndexOn(set)
	if ix4 == ix3 {
		t.Fatal("Delete must invalidate the cached index")
	}

	r.InsertUnchecked(Tuple{value.NewConst("v1"), value.NewConst("v2"), value.NewConst("v3")})
	if r.IndexOn(set) == ix4 {
		t.Fatal("InsertUnchecked must invalidate the cached index")
	}

	// A clone starts with a cold cache and must not share the parent's.
	if r.Clone().IndexOn(set) == r.IndexOn(set) {
		t.Fatal("clone must not share the parent's index cache")
	}
}

func TestIndexConcurrentReaders(t *testing.T) {
	s := indexTestScheme()
	rng := rand.New(rand.NewSource(13))
	r := randomIndexInstance(rng, s, 50)
	done := make(chan struct{})
	for w := 0; w < 8; w++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 100; i++ {
				ix := r.IndexOn(schema.AttrSet(1 + i%7))
				ix.ForEachGroup(func(rows []int) bool { return len(rows) > 0 })
			}
		}()
	}
	for w := 0; w < 8; w++ {
		<-done
	}
}

// indexSizes is an index's partition sizes: rows in constant groups,
// GroupCount, and the two sidecars' lengths.
func indexSizes(ix *Index) [4]int {
	rows := 0
	ix.ForEachGroup(func(g []int) bool { rows += len(g); return true })
	return [4]int{rows, ix.GroupCount(), len(ix.NullRows()), len(ix.NothingRows())}
}

// TestIndexStats pins the partition sizes on a hand-built instance: rows
// in groups, groups, null and nothing sidecars, against a fresh build.
func TestIndexStats(t *testing.T) {
	s := indexTestScheme()
	r := MustFromRows(s,
		[]string{"v1", "v1", "v1"},
		[]string{"v1", "v2", "v1"},
		[]string{"v1", "v3", "v1"},
		[]string{"v2", "v1", "v1"},
		[]string{"-", "v1", "v1"},
		[]string{"!", "v1", "v1"},
	)
	if got, want := indexSizes(r.IndexOn(schema.NewAttrSet(0))), [4]int{4, 2, 1, 1}; got != want {
		t.Errorf("sizes = %v, want %v", got, want)
	}
	if got := indexSizes(BuildIndex(r, schema.NewAttrSet(0))); got != [4]int{4, 2, 1, 1} {
		t.Errorf("fresh build's sizes = %v", got)
	}
	if empty := indexSizes(BuildIndex(New(s), schema.NewAttrSet(0))); empty != [4]int{} {
		t.Errorf("empty sizes = %v", empty)
	}
}

// TestIndexStatsDeltaMaintained checks the delta-mutation contract on
// random workloads: after any interleaving of InsertDelta, DeleteDelta
// and SetCellDelta, the cached index's rows in groups, GroupCount, null
// and nothing sidecars equal a fresh rebuild's.
func TestIndexStatsDeltaMaintained(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	s := indexTestScheme()
	for trial := 0; trial < 40; trial++ {
		r := randomIndexInstance(rng, s, 30)
		set := schema.NewAttrSet(schema.Attr(rng.Intn(3)), schema.Attr(rng.Intn(3)))
		r.IndexOn(set) // cache it so the deltas maintain it
		for op := 0; op < 25; op++ {
			switch k := rng.Intn(3); {
			case k == 0 || r.Len() == 0:
				tup := make(Tuple, s.Arity())
				for a := range tup {
					if rng.Intn(4) == 0 {
						tup[a] = r.FreshNull()
					} else {
						tup[a] = value.NewConst(s.Domain(schema.Attr(a)).Values[rng.Intn(6)])
					}
				}
				if r.FindIdentical(tup) >= 0 {
					continue // duplicate draw; try another op
				}
				if _, err := r.InsertDelta(tup); err != nil {
					t.Fatal(err)
				}
			case k == 1:
				r.DeleteDelta(rng.Intn(r.Len()))
			default:
				i, a := rng.Intn(r.Len()), schema.Attr(rng.Intn(3))
				v := value.NewConst(s.Domain(a).Values[rng.Intn(6)])
				mod := append(Tuple(nil), r.Tuple(i)...)
				mod[a] = v
				if r.FindIdentical(mod) >= 0 {
					continue // would duplicate an existing tuple
				}
				r.SetCellDelta(i, a, v)
			}
			if got, fresh := indexSizes(r.IndexOn(set)), indexSizes(BuildIndex(r, set)); got != fresh {
				t.Fatalf("trial %d op %d: delta sizes %v diverged from rebuild %v", trial, op, got, fresh)
			}
		}
	}
}

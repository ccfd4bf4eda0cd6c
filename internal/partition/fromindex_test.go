package partition

import (
	"math/rand"
	"reflect"
	"testing"

	"fdnull/internal/relation"
	"fdnull/internal/schema"
	"fdnull/internal/testfds"
	"fdnull/internal/value"
)

// TestLevelOneFromIndexMatchesBuild: the strong level-1 partition the
// Cache reads off the X-partition index equals Build's — the same classes
// in the same order, the same sidecars — on random instances with
// nothing cells, both freshly indexed and after random delta updates,
// which leave index groups unordered and reuse freed slots.
func TestLevelOneFromIndexMatchesBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	s := testScheme(3, 4)
	dom := s.Domain(0)
	for trial := 0; trial < 40; trial++ {
		r := randomInstance(rng, s, 1+rng.Intn(30), true)
		cell := func() value.V {
			switch roll := rng.Intn(10); {
			case roll == 0:
				return value.NewNothing()
			case roll < 3:
				return r.FreshNull()
			default:
				return value.NewConst(dom.Values[rng.Intn(dom.Size())])
			}
		}
		for op := 0; op < 40; op++ {
			for a := 0; a < s.Arity(); a++ {
				set := schema.NewAttrSet(schema.Attr(a))
				got, want := fromIndex(r.IndexOn(set), r.Len()), Build(r, set, testfds.Strong)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("trial %d op %d attr %d: from the index\n%+v\nBuild\n%+v\n%s", trial, op, a, got, want, r)
				}
			}
			switch k := rng.Intn(3); {
			case k == 0 || r.Len() == 0:
				_, _ = r.InsertDelta(relation.Tuple{cell(), cell(), cell()}) // a duplicate is refused
			case k == 1:
				r.DeleteDelta(rng.Intn(r.Len()))
			default:
				r.SetCellDelta(rng.Intn(r.Len()), schema.Attr(rng.Intn(s.Arity())), cell())
			}
		}
	}
}

// TestLevelOneFromIndexAllocs: the strong level-1 partition costs per
// class, not per row, once the index exists — the same allocations at
// n = 2,000 as at n = 20,000 on a 100-value column.
func TestLevelOneFromIndexAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	s := testScheme(2, 20000)
	dom := s.Domain(0)
	set := schema.NewAttrSet(0)
	allocs := func(n int) float64 {
		r := relation.New(s)
		for i := 0; i < n; i++ {
			r.InsertUnchecked(relation.Tuple{value.NewConst(dom.Values[i%100]), value.NewConst(dom.Values[i])})
		}
		if p := NewCache(r, testfds.Strong).Get(set); p.NumClasses() != 100 {
			t.Fatalf("n=%d: %d classes, want 100", n, p.NumClasses())
		}
		return testing.AllocsPerRun(10, func() { NewCache(r, testfds.Strong).Get(set) })
	}
	if small, large := allocs(2000), allocs(20000); small != large {
		t.Errorf("Cache.Get's level-1 strong partition allocates %v at n=2000 and %v at n=20000; want the same", small, large)
	}
}

package testfds

import (
	"math/rand"
	"testing"

	"fdnull/internal/eval"
	"fdnull/internal/fd"
	"fdnull/internal/relation"
	"fdnull/internal/schema"
	"fdnull/internal/value"
	"fdnull/internal/workload"
)

// TestBucketAgreesWithSortedAndPairwise holds Bucket — the path both
// deciders take — to the Sorted and Pairwise references on random
// instances with nulls, shared marks and `!` cells on both sides of the
// FDs, under both conventions. Each instance is checked freshly built and
// again after random delta inserts, deletes and cell overwrites have
// maintained the cached X-partition indexes in place, so their groups and
// sidecars are no longer in row order. Bucket's witness must be a
// violating pair (or, under the weak convention, the tuple the nothing
// gate reports).
func TestBucketAgreesWithSortedAndPairwise(t *testing.T) {
	rng := rand.New(rand.NewSource(2880))
	dom := schema.IntDomain("d", "v", 3)
	s := schema.Uniform("R", []string{"A", "B", "C", "D"}, dom)
	cell := func(bang bool) value.V {
		switch k := rng.Intn(10); {
		case k < 2 && bang:
			return value.NewNothing()
		case k < 4:
			return value.NewNull(1 + rng.Intn(3)) // shared marks
		case k == 4:
			return value.NewNull(10 + rng.Intn(1000))
		default:
			return value.NewConst(dom.Values[rng.Intn(dom.Size())])
		}
	}
	row := func(bang bool) relation.Tuple {
		tu := make(relation.Tuple, s.Arity())
		for i := range tu {
			tu[i] = cell(bang)
		}
		return tu
	}
	violated := map[Convention]int{}
	check := func(trial int, stage string, r *relation.Relation, fds []fd.FD) {
		t.Helper()
		for _, conv := range []Convention{Strong, Weak} {
			got, v := Check(r, fds, conv, Bucket)
			sorted, _ := Check(r, fds, conv, Sorted)
			pair, _ := Check(r, fds, conv, Pairwise)
			if got != sorted || got != pair {
				t.Fatalf("trial %d (%s) %v: bucket=%v sorted=%v pairwise=%v\nF = %s\n%s",
					trial, stage, conv, got, sorted, pair, fd.FormatSet(s, fds), r)
			}
			switch {
			case got:
				continue
			case v.T1 == v.T2:
				if conv != Weak || !r.Tuple(v.T1).HasNothingOn(s.All()) {
					t.Fatalf("trial %d (%s) %v: one-tuple witness %d without the weak nothing gate\n%s",
						trial, stage, conv, v.T1, r)
				}
			case !PairViolates(conv, r.Tuple(v.T1), r.Tuple(v.T2), v.FD.X, v.FD.Y):
				t.Fatalf("trial %d (%s) %v: witness (%d, %d) does not violate %s\n%s",
					trial, stage, conv, v.T1, v.T2, v.FD.Format(s), r)
			default:
				violated[conv]++
			}
		}
	}
	for trial := 0; trial < 3000; trial++ {
		var fds []fd.FD
		for len(fds) == 0 {
			for i := 0; i < 1+rng.Intn(3); i++ {
				x := schema.AttrSet(rng.Intn(15) + 1)
				if y := schema.AttrSet(rng.Intn(15) + 1).Diff(x); !y.Empty() {
					fds = append(fds, fd.New(x, y))
				}
			}
		}
		bang := trial%2 == 0
		r := relation.New(s)
		for i := 0; i < 2+rng.Intn(12); i++ {
			r.InsertUnchecked(row(bang))
		}
		check(trial, "fresh", r, fds)
		for k := 0; k < 1+rng.Intn(10); k++ {
			switch op := rng.Intn(3); {
			case op == 0:
				_, _ = r.InsertDelta(row(bang)) // a duplicate is refused, and that is fine
			case op == 1 && r.Len() > 1:
				r.DeleteDelta(rng.Intn(r.Len()))
			case r.Len() > 0:
				r.SetCellDelta(rng.Intn(r.Len()), schema.Attr(rng.Intn(s.Arity())), cell(bang))
			}
		}
		check(trial, "after deltas", r, fds)
	}
	// The sweep must have met real pair violations under both conventions,
	// not only the weak nothing gate.
	if violated[Strong] < 100 || violated[Weak] < 100 {
		t.Fatalf("too few pair violations to compare witnesses: %v", violated)
	}
}

// TestDecidersReuseIndexes pins that the two deciders group on the
// X-partition indexes eval.CheckAll already built and cached on the same
// relation: running them afterwards builds no index.
func TestDecidersReuseIndexes(t *testing.T) {
	_, fds, r := workload.Employees(2000, 100, 0.1, 28)
	eval.CheckAll(fds, r, eval.CheckOptions{})
	_, before := r.IndexCounts()
	if before == 0 {
		t.Fatal("CheckAll built no index")
	}
	StrongSatisfied(r, fds)
	WeakSatisfiedMinimallyIncomplete(r, fds)
	if _, after := r.IndexCounts(); after != before {
		t.Errorf("the deciders built %d indexes after CheckAll, want 0", after-before)
	}
}

// TestBucketAllocs pins a decide on cached indexes as an allocation
// count: per FD, not per row or per group — the same at n = 2,000 as at
// n = 20,000.
func TestBucketAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	allocs := func(n int) (strong, weak float64) {
		_, fds, r := workload.Employees(n, n/20, 0, int64(n))
		if ok, _ := StrongSatisfied(r, fds); !ok { // builds and caches the indexes
			t.Fatalf("n=%d: a complete Employees instance must satisfy its FDs", n)
		}
		strong = testing.AllocsPerRun(20, func() { StrongSatisfied(r, fds) })
		weak = testing.AllocsPerRun(20, func() { WeakSatisfiedMinimallyIncomplete(r, fds) })
		return strong, weak
	}
	s1, w1 := allocs(2000)
	s2, w2 := allocs(20000)
	if s1 != s2 || w1 != w2 {
		t.Errorf("a decide allocates strong %v / weak %v at n=2000 and %v / %v at n=20000; want the same",
			s1, w1, s2, w2)
	}
}

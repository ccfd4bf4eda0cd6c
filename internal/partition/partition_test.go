package partition

import (
	"fmt"
	"math/rand"
	"testing"

	"fdnull/internal/relation"
	"fdnull/internal/schema"
	"fdnull/internal/testfds"
)

func testScheme(p, domSize int) *schema.Scheme {
	names := make([]string, p)
	for i := range names {
		names[i] = string(rune('A' + i))
	}
	return schema.Uniform("R", names, schema.IntDomain("d", "v", domSize))
}

// randomInstance builds a small instance with constants, fresh and shared
// nulls, and (optionally) nothing cells.
func randomInstance(rng *rand.Rand, s *schema.Scheme, n int, withNothing bool) *relation.Relation {
	r := relation.New(s)
	dom := s.Domain(0)
	for i := 0; i < n; i++ {
		row := make([]string, s.Arity())
		for j := range row {
			switch roll := rng.Float64(); {
			case roll < 0.15:
				row[j] = "-"
			case roll < 0.25:
				row[j] = fmt.Sprintf("-%d", 1+rng.Intn(3))
			case roll < 0.28 && withNothing:
				row[j] = "!"
			default:
				row[j] = dom.Values[rng.Intn(dom.Size())]
			}
		}
		_ = r.InsertRow(row...) // syntactic duplicates skipped
	}
	return r
}

// TestBuildMatchesPairwise validates the partition structure against the
// defining pairwise relation: under the weak convention two tuples share
// a class iff every attribute compares weak-equal; under the strong
// convention the partition covers exactly the constant tuples grouped by
// projection, with null/nothing sidecars.
func TestBuildMatchesPairwise(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	s := testScheme(4, 3)
	for trial := 0; trial < 50; trial++ {
		r := randomInstance(rng, s, 2+rng.Intn(12), trial%2 == 0)
		for _, set := range []schema.AttrSet{
			schema.NewAttrSet(0), schema.NewAttrSet(1, 2), schema.NewAttrSet(0, 2, 3), s.All(),
		} {
			for _, conv := range []testfds.Convention{testfds.Strong, testfds.Weak} {
				p := Build(r, set, conv)
				checkInvariants(t, r, p)
				for i := 0; i < r.Len(); i++ {
					for j := i + 1; j < r.Len(); j++ {
						same := sameKey(conv, r, i, j, set)
						got := p.ClassOf(i) >= 0 && p.ClassOf(i) == p.ClassOf(j)
						if same != got {
							t.Fatalf("trial %d conv %v set %v: pair (%d,%d) same-key=%v but same-class=%v\n%s",
								trial, conv, set, i, j, same, got, r)
						}
					}
				}
			}
		}
	}
}

// sameKey is the reference grouping relation a partition must encode:
// attribute-wise, constants by value; under the weak convention nulls by
// mark; null (strong) and nothing cells never key.
func sameKey(conv testfds.Convention, r *relation.Relation, i, j int, set schema.AttrSet) bool {
	ti, tj := r.Tuple(i), r.Tuple(j)
	for _, a := range set.Attrs() {
		vi, vj := ti[a], tj[a]
		switch {
		case vi.IsConst() && vj.IsConst():
			if vi.Const() != vj.Const() {
				return false
			}
		case conv == testfds.Weak && vi.IsNull() && vj.IsNull():
			if vi.Mark() != vj.Mark() {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// checkInvariants verifies the structural contract: classes have ≥ 2
// ascending members consistent with classOf; sidecars match the tuples'
// null/nothing profile on the set; every tuple is in exactly one place.
func checkInvariants(t *testing.T, r *relation.Relation, p *Partition) {
	t.Helper()
	seen := make([]int, r.Len()) // 0 unseen, 1 class, 2 sidecar
	for id, cls := range p.Classes() {
		if len(cls) < 2 {
			t.Fatalf("stripped class %d has %d members", id, len(cls))
		}
		for k, i := range cls {
			if k > 0 && cls[k-1] >= i {
				t.Fatalf("class %d not ascending: %v", id, cls)
			}
			if p.ClassOf(i) != id {
				t.Fatalf("classOf(%d) = %d, want %d", i, p.ClassOf(i), id)
			}
			seen[i]++
		}
	}
	for _, list := range [][]int{p.NullRows(), p.NothingRows()} {
		for k, i := range list {
			if k > 0 && list[k-1] >= i {
				t.Fatalf("sidecar not ascending: %v", list)
			}
			if p.ClassOf(i) != -1 {
				t.Fatalf("sidecar row %d has class %d", i, p.ClassOf(i))
			}
			seen[i] += 2
		}
	}
	for i := range seen {
		if seen[i] > 2 {
			t.Fatalf("row %d appears in multiple places", i)
		}
		wantNothing := r.Tuple(i).HasNothingOn(p.Set())
		wantNull := !wantNothing && p.Convention() == testfds.Strong && r.Tuple(i).HasNullOn(p.Set())
		if (wantNothing || wantNull) != (seen[i] == 2) {
			t.Fatalf("row %d sidecar membership wrong (nothing=%v null=%v seen=%d)", i, wantNothing, wantNull, seen[i])
		}
	}
}

// TestIntersectMatchesBuild pins the product encoding: intersecting any
// two direct-built partitions must yield exactly the direct-built
// partition of the union — same classes, same sidecars.
func TestIntersectMatchesBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	s := testScheme(5, 3)
	for trial := 0; trial < 60; trial++ {
		r := randomInstance(rng, s, 2+rng.Intn(14), trial%3 == 0)
		for _, conv := range []testfds.Convention{testfds.Strong, testfds.Weak} {
			x := schema.AttrSet(1 + rng.Intn(30))
			y := schema.AttrSet(1 + rng.Intn(30))
			got := Build(r, x, conv).Intersect(Build(r, y, conv))
			want := Build(r, x.Union(y), conv)
			if !samePartition(got, want) {
				t.Fatalf("trial %d conv %v: product(%v, %v) differs from direct build on %v\n%s",
					trial, conv, x, y, x.Union(y), r)
			}
			checkInvariants(t, r, got)
		}
	}
}

// samePartition compares partitions up to class order.
func samePartition(a, b *Partition) bool {
	if a.Set() != b.Set() || a.NumClasses() != b.NumClasses() || a.Len() != b.Len() {
		return false
	}
	// Classes are canonical up to order: compare via each row's class
	// fingerprint (the class's first member).
	fp := func(p *Partition) []int {
		out := make([]int, p.Len())
		for i := range out {
			out[i] = -1
		}
		for _, cls := range p.Classes() {
			for _, i := range cls {
				out[i] = cls[0]
			}
		}
		return out
	}
	fa, fb := fp(a), fp(b)
	for i := range fa {
		if fa[i] != fb[i] {
			return false
		}
	}
	return sameInts(a.NullRows(), b.NullRows()) && sameInts(a.NothingRows(), b.NothingRows())
}

func sameInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestCacheSharesAndEvicts(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	s := testScheme(4, 3)
	r := randomInstance(rng, s, 12, false)
	c := NewCache(r, testfds.Strong)
	ab := schema.NewAttrSet(0, 1)
	p1 := c.Get(ab)
	if p2 := c.Get(ab); p1 != p2 {
		t.Fatal("repeated Get must return the cached partition")
	}
	abc := schema.NewAttrSet(0, 1, 2)
	_ = c.Get(abc)
	// Get(abc) pins {A,B} (its parent), {A}, {B}, {C}, {A,B,C}.
	if c.Size() != 5 {
		t.Fatalf("cache size %d, want 5", c.Size())
	}
	c.EvictBelow(3)
	if c.Size() != 4 {
		t.Fatalf("after EvictBelow(3): size %d, want 4 (level-2 set evicted, level-1 pinned)", c.Size())
	}
	if p3 := c.Get(ab); p3 == p1 {
		t.Fatal("evicted partition must be rebuilt, not returned from cache")
	}
}

func TestCacheInvalidatesOnMutation(t *testing.T) {
	s := testScheme(3, 3)
	r := relation.MustFromRows(s,
		[]string{"v1", "v1", "v1"},
		[]string{"v1", "v1", "v2"})
	c := NewCache(r, testfds.Weak)
	x := schema.NewAttrSet(0)
	if got := c.Get(x).NumClasses(); got != 1 {
		t.Fatalf("one duplicated A-value expected, got %d classes", got)
	}
	r.MustInsertRow("v2", "v2", "v2")
	r.MustInsertRow("v2", "v3", "v3")
	if got := c.Get(x).NumClasses(); got != 2 {
		t.Fatalf("after mutation the cache must rebuild: got %d classes, want 2", got)
	}
	if c.Get(x).Len() != 4 {
		t.Fatal("rebuilt partition must cover the mutated relation")
	}
}

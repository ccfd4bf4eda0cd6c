package relation

import (
	"testing"

	"fdnull/internal/schema"
	"fdnull/internal/value"
)

// TestIndexKernelAllocs pins the X-partition index's kernels as
// allocation counts: a build on a 100-value column allocates per group,
// not per row (the same at n = 2,000 as at n = 20,000); a one-attribute
// build over 20,000 distinct values allocates no key per group, only the
// map's and the slab's own memory; a probe allocates nothing; a row
// leaving and rejoining a group that keeps its capacity allocates
// nothing, and neither does one opening a new one-attribute group.
func TestIndexKernelAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	dom := schema.IntDomain("d", "v", 20000)
	s := schema.Uniform("R", []string{"A", "B"}, dom)
	set := schema.NewAttrSet(0)
	build := func(n int) (*Relation, float64) {
		r := New(s)
		for i := 0; i < n; i++ {
			r.InsertUnchecked(Tuple{value.NewConst(dom.Values[i%100]), value.NewConst(dom.Values[i])})
		}
		return r, testing.AllocsPerRun(10, func() { BuildIndex(r, set) })
	}
	r, small := build(2000)
	if _, large := build(20000); small != large {
		t.Errorf("BuildIndex on a 100-value column allocates %v at n=2000 and %v at n=20000; want the same", small, large)
	}
	ix := r.IndexOn(set)
	probe := Tuple{value.NewConst("v7"), value.NewNull(1)}
	if n := testing.AllocsPerRun(100, func() { ix.Probe(probe) }); n != 0 {
		t.Errorf("Probe allocates %v, want 0", n)
	}
	get := tupleGetter(r.Tuple(0))
	if n := testing.AllocsPerRun(100, func() { ix.removeRow(0, get); ix.addRow(0, get) }); n != 0 {
		t.Errorf("removeRow + addRow within a 20-row group allocate %v, want 0", n)
	}
	if rows, _ := ix.Probe(r.Tuple(0)); len(rows) != 20 {
		t.Fatalf("row 0's group holds %d rows after the round trips, want 20", len(rows))
	}

	r, _ = build(20000)
	distinct := schema.NewAttrSet(1)
	// A key per group would be 20,000 allocations (20,115 in all when keys
	// were formatted); the map's own tables are ~100.
	if n := testing.AllocsPerRun(10, func() { BuildIndex(r, distinct) }); n > 1000 {
		t.Errorf("BuildIndex over 20,000 distinct values allocates %v, want < 1,000 (no key per group)", n)
	}
	ix = r.IndexOn(distinct)
	get = tupleGetter(r.Tuple(0))
	if n := testing.AllocsPerRun(100, func() { ix.removeRow(0, get); ix.addRow(0, get) }); n != 0 {
		t.Errorf("addRow opening a new one-attribute group allocates %v, want 0", n)
	}
	if rows, _ := ix.Probe(r.Tuple(0)); len(rows) != 1 || rows[0] != 0 || ix.GroupCount() != 20000 {
		t.Fatalf("after the round trips row 0's group is %v and the index has %d groups, want [0] and 20000", rows, ix.GroupCount())
	}
}

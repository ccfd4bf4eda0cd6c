package relation

import (
	"testing"

	"fdnull/internal/schema"
	"fdnull/internal/value"
)

// TestIndexKernelAllocs pins the X-partition index's kernels as
// allocation counts: a build on a 100-value column allocates per group,
// not per row (the same at n = 2,000 as at n = 20,000); a probe allocates
// nothing; and a row leaving and rejoining a group that keeps its
// capacity allocates nothing.
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
}

package query

import (
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"
	"unsafe"

	"fdnull/internal/relation"
	"fdnull/internal/schema"
	"fdnull/internal/value"
)

// blockScheme is R(A, B, C): A is the probed attribute, and B and C have
// disjoint domains, so a mark shared between them admits no completion.
func blockScheme() *schema.Scheme {
	return schema.MustNew("R", []string{"A", "B", "C"}, []*schema.Domain{
		schema.MustDomain("da", "a1", "a2"),
		schema.MustDomain("db", "b1", "b2"),
		schema.MustDomain("dc", "c1", "c2"),
	})
}

// blockRelation builds an instance in which A = a1 has exactly n
// candidates (A = a1 or a null A), interleaved with A = a2 rows no probe
// of it returns. Candidate k is special when k is 0, 63, 64 or n-1: a `!`
// cell, a mark shared by B and C, or a null A (a Maybe answer of A = a1),
// as kind says. The other candidates alternate between B = b1 and B = b2.
func blockRelation(n int, kind string) *relation.Relation {
	s := blockScheme()
	r := relation.New(s)
	mark := 1
	for k := 0; k < n; k++ {
		t := relation.Tuple{value.NewConst("a1"), value.NewConst([]string{"b1", "b2"}[k%2]), value.NewConst("c1")}
		if k == 0 || k == 63 || k == 64 || k == n-1 {
			switch kind {
			case "nothing":
				t[1] = value.NewNothing()
			case "disjoint-mark":
				t[1], t[2] = value.NewNull(mark), value.NewNull(mark)
			case "maybe":
				t[0] = value.NewNull(mark)
			}
			mark++
		}
		r.InsertUnchecked(t)
		if k%3 == 0 {
			r.InsertUnchecked(relation.Tuple{value.NewConst("a2"), value.NewConst("b1"), value.NewConst("c2")})
		}
	}
	return r
}

// TestRunBlockBoundaries holds Plan.Run, which evaluates its candidates in
// blocks of runBlock, to the scan at every block edge: candidate sets of
// 0, 1, 63, 64, 65, 127, 128 and 129 rows with a contradictory tuple (a
// `!` cell, a mark spanning disjoint domains) or a Maybe answer at the
// first and last candidate and on both sides of the first edge. The
// results must be equal, order included.
func TestRunBlockBoundaries(t *testing.T) {
	preds := []Pred{
		Eq{Attr: 0, Const: "a1"},
		And{P: Eq{Attr: 0, Const: "a1"}, Q: Eq{Attr: 1, Const: "b1"}},
		And{P: Eq{Attr: 0, Const: "a1"}, Q: Not{P: Eq{Attr: 2, Const: "c2"}}},
		Or{P: Eq{Attr: 0, Const: "a1"}, Q: Eq{Attr: 1, Const: "b2"}},
	}
	for _, n := range []int{0, 1, 63, 64, 65, 127, 128, 129} {
		for _, kind := range []string{"nothing", "disjoint-mark", "maybe"} {
			r := blockRelation(n, kind)
			if pl := PlanPred(r, r, preds[0]); pl.root == nil || len(pl.root.rows) != n {
				t.Fatalf("n=%d %s: A = a1 plans %v, want %d candidates", n, kind, pl.root, n)
			}
			for _, p := range preds {
				pl := PlanPred(r, r, p)
				if pl.root == nil {
					t.Fatalf("n=%d %s: %v did not plan", n, kind, p)
				}
				var got Result
				pl.Run(r, &got)
				if want := Select(r, p); !got.Equal(want) {
					t.Errorf("n=%d %s, %v:\nRun    sure %v maybe %v\nSelect sure %v maybe %v",
						n, kind, p, got.Sure, got.Maybe, want.Sure, want.Maybe)
				}
			}
		}
	}
}

// BenchmarkPlanRunStrided times the read kernel of kv-read's group query
// from a cold cache: KV(K, A, B) with K -> A and K -> B, 150,000 rows,
// B = b over a 256-value domain, so each group is 585 or 586 rows spaced
// 256 apart. The plans are built first. Before every timed iteration a
// sweep through a buffer larger than the last-level cache evicts the
// relation, so each candidate's tuple header, cells and constant bytes
// come from memory, as on a daemon whose cache other work has taken. An
// iteration is Plan.Run plus a read of every answered row's constants,
// the bytes a reply renders: Run alone would credit a loop that leaves
// those loads to the renderer. Run it with a fixed -benchtime (make
// bench-query uses 200x): every sweep costs far more than the iteration
// it precedes. ns/row is the time per candidate.
func BenchmarkPlanRunStrided(b *testing.B) {
	const rows, groups = 150_000, 256
	s := schema.MustNew("KV", []string{"K", "A", "B"}, []*schema.Domain{
		schema.IntDomain("key", "k", rows), schema.IntDomain("a", "a", 64), schema.IntDomain("b", "b", groups),
	})
	r := relation.New(s)
	for k := 0; k < rows; k++ {
		r.InsertUnchecked(relation.Tuple{
			value.NewConst(s.Domain(0).Values[k]),
			value.NewConst(s.Domain(1).Values[k%64]),
			value.NewConst(s.Domain(2).Values[k%groups]),
		})
	}
	plans := make([]*Plan, groups)
	for g := range plans {
		plans[g] = PlanPred(r, r, Eq{Attr: 2, Const: s.Domain(2).Values[g]})
	}
	sweep := make([]byte, llcBytes()*5/4)
	var fold byte
	candidates := 0
	var res Result
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for j := 0; j < len(sweep); j += 64 {
			fold += sweep[j]
		}
		pl := plans[i%groups]
		candidates += len(pl.root.rows)
		b.StartTimer()
		pl.Run(r, &res)
		if len(res.Sure) != len(pl.root.rows) {
			b.Fatalf("group %d: %d sure of %d candidates", i%groups, len(res.Sure), len(pl.root.rows))
		}
		for _, j := range res.Sure {
			for _, v := range r.Tuple(j) {
				c := v.Const()
				for k := 0; k < len(c); k++ {
					fold += c[k]
				}
			}
		}
	}
	runtime.KeepAlive(fold)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(candidates), "ns/row")
}

// llcBytes is the size of the last-level cache Linux reports for CPU 0,
// or 64 MiB when it reports none.
func llcBytes() int {
	for idx := 4; idx >= 2; idx-- {
		raw, err := os.ReadFile(fmt.Sprintf("/sys/devices/system/cpu/cpu0/cache/index%d/size", idx))
		if err != nil {
			continue
		}
		size := strings.TrimSpace(string(raw))
		unit := 1
		switch {
		case strings.HasSuffix(size, "K"):
			unit, size = 1<<10, strings.TrimSuffix(size, "K")
		case strings.HasSuffix(size, "M"):
			unit, size = 1<<20, strings.TrimSuffix(size, "M")
		}
		if n, err := strconv.Atoi(size); err == nil && n > 0 {
			return n * unit
		}
	}
	return 64 << 20
}

// TestSelectIntoReusedResult runs one Result through SelectInto across a
// seeded sequence of predicates and delta mutations of the source, and
// holds every answer to a fresh Select's, order included. The sequence
// mixes the plan shapes — scan fallback, probe, probe plus residual,
// union — so the planner's pooled nodes and residual are reused across
// shapes; the relations carry `!` cells, shared marks and nulls, so Maybe
// answers and contradictory rows occur, and every other relation has no
// null on A, so a probe of A's order is its group's alone, and B equal
// to A wherever both are constants. On those A = B agrees on three
// times the rows its size guess (a third of them) says, and it is still
// the one probe gathered, C in {w1} going to the residual. A delta
// mutation between reads moves rows between index groups and leaves some
// groups out of order, and the reused plan must not answer from the last
// read's candidates.
func TestSelectIntoReusedResult(t *testing.T) {
	s := diffScheme()
	rng := rand.New(rand.NewSource(35))
	fixed := map[string]Pred{
		"scan":     Not{P: Eq{Attr: 0, Const: "v1"}},
		"probe":    Eq{Attr: 0, Const: "v1"},
		"residual": And{P: EqAttr{A: 0, B: 1}, Q: In{Attr: 2, Values: []string{"w1"}}},
		"union":    Or{P: Eq{Attr: 0, Const: "v3"}, Q: EqAttr{A: 1, B: 4}},
	}
	trials := 400
	if testing.Short() {
		trials = 100
	}
	var res Result
	seen := map[string]int{}
	for trial := 0; trial < trials; trial++ {
		r := randRelation(rng, s, 40+rng.Intn(80))
		if trial%2 == 1 { // no null on A: no sidecar for a probe of A to sort in
			for i := 0; i < r.Len(); i++ {
				if r.Tuple(i)[0].IsNull() {
					r.SetCellDelta(i, 0, value.NewConst("v1"))
				}
				if t := r.Tuple(i); t[0].IsConst() && t[1].IsConst() {
					r.SetCellDelta(i, 1, t[0])
				}
			}
		}
		for step := 0; step < 8; step++ {
			var p Pred
			if step < 4 {
				p = fixed[[]string{"scan", "probe", "residual", "union"}[(trial+step)%4]]
			} else {
				p = randPred(rng, s, rng.Intn(3))
			}
			if pl := PlanPred(r, r, p); pl.root == nil {
				seen["scan"]++
			} else {
				seen[pl.root.op]++
				if eq, ok := pl.root.atom.(Eq); ok {
					ix := r.IndexOn(schema.NewAttrSet(eq.Attr))
					g, _ := ix.Probe(relation.Tuple{value.NewConst(eq.Const), {}, {}, {}, {}})
					if len(ix.NullRows()) == 0 && !slices.IsSorted(g) {
						seen["out-of-order group"]++
					}
				}
			}
			SelectInto(r, p, Options{}, &res)
			want := Select(r, p)
			if !res.Equal(want) {
				t.Fatalf("trial %d step %d, %v:\nreused sure %v maybe %v\nSelect sure %v maybe %v",
					trial, step, p, res.Sure, res.Maybe, want.Sure, want.Maybe)
			}
			if len(want.Maybe) > 0 {
				seen["maybe"]++
			}
			switch i := rng.Intn(r.Len()); rng.Intn(3) {
			case 0:
				r.DeleteDelta(i)
			case 1:
				a := schema.Attr(rng.Intn(s.Arity()))
				r.SetCellDelta(i, a, value.NewConst(s.Domain(a).Values[rng.Intn(s.Domain(a).Size())]))
			default:
				r.SetCellDelta(i, schema.Attr(rng.Intn(s.Arity())), value.NewNull(1+rng.Intn(4)))
			}
		}
	}
	for _, shape := range []string{"scan", opProbe, "out-of-order group", opUnion, "maybe"} {
		if seen[shape] == 0 {
			t.Errorf("the sequence never produced a %s (saw %v)", shape, seen)
		}
	}
}

// TestProbeSortsOutOfOrderGroup: DeleteDelta renumbers the last row into
// the hole, which leaves the group of A = a1 as [0 2 1] with no null
// sidecar to sort in; the probe copies the group into its own buffer and
// sorts it, or Run answers out of order.
func TestProbeSortsOutOfOrderGroup(t *testing.T) {
	s := blockScheme()
	r := relation.New(s)
	for _, a := range []string{"a1", "a2", "a1", "a1"} {
		r.InsertUnchecked(relation.Tuple{value.NewConst(a), value.NewConst("b1"), value.NewConst("c1")})
	}
	p := Eq{Attr: 0, Const: "a1"}
	PlanPred(r, r, p) // builds the index before the delete, which reorders it
	r.DeleteDelta(1)  // row 3 (a1) becomes row 1
	g, _ := r.IndexOn(schema.NewAttrSet(0)).Probe(relation.Tuple{value.NewConst("a1"), {}, {}})
	if slices.IsSorted(g) {
		t.Fatalf("the group of a1 after DeleteDelta is %v, want it out of order", g)
	}
	pl := PlanPred(r, r, p)
	if &pl.root.rows[0] == &g[0] {
		t.Fatal("the probe's candidates are the index's group, not the plan's own")
	}
	var got Result
	pl.Run(r, &got)
	if want := Select(r, p); !got.Equal(want) || !slices.Equal(got.Sure, []int{0, 1, 2}) {
		t.Errorf("A = a1 over the group %v: Run sure %v, Select sure %v, want [0 1 2]", g, got.Sure, want.Sure)
	}
}

// TestSelectIntoReleasesThePlan: after SelectInto the planner kept in the
// Result holds no predicate — a daemon's predicates are substrings of a
// request line — and no index or index group, only its buffers, also after
// a key probe of a cached two-attribute index, and ScratchBytes counts
// those buffers, so a caller can see a union of thousands of arms and
// drop it.
func TestSelectIntoReleasesThePlan(t *testing.T) {
	s := blockScheme()
	r := relation.New(s)
	for _, a := range []string{"a1", "a2", "a1"} {
		r.InsertUnchecked(relation.Tuple{value.NewConst(a), value.NewConst("b1"), value.NewConst("c1")})
	}
	const arms = 2000
	var p Pred = Eq{Attr: 0, Const: "a1"}
	for i := 1; i < arms; i++ {
		p = Or{P: p, Q: Eq{Attr: 0, Const: "a1"}}
	}
	var res Result
	SelectInto(r, And{P: p, Q: Eq{Attr: 1, Const: "b1"}}, Options{}, &res)
	if !slices.Equal(res.Sure, []int{0, 2}) {
		t.Fatalf("sure %v, want [0 2]", res.Sure)
	}
	pl := res.plan
	if pl.pred != nil || pl.root != nil {
		t.Error("the plan keeps its predicate or its root")
	}
	for _, l := range pl.leaves[:cap(pl.leaves)] {
		if l != nil {
			t.Fatalf("the plan keeps the leaf %v", l)
		}
	}
	for _, rc := range pl.residual[:cap(pl.residual)] {
		if rc.pred != nil {
			t.Fatalf("the plan keeps the residual %v", rc.pred)
		}
	}
	for _, v := range pl.probe {
		if v != (value.V{}) {
			t.Fatalf("the plan keeps the probe key %v", pl.probe)
		}
	}
	for _, n := range pl.nodes {
		if n.atom != nil || n.idx != nil || slices.ContainsFunc(n.kids[:cap(n.kids)], func(k *planNode) bool { return k != nil }) {
			t.Fatalf("a pooled %s node keeps %v, its index or its children", n.op, n.atom)
		}
	}
	// A key probe: the plan looked up the cached {A,B} index and its group.
	r.IndexOn(schema.NewAttrSet(0, 1))
	SelectInto(r, And{P: Eq{Attr: 0, Const: "a1"}, Q: Eq{Attr: 1, Const: "b1"}}, Options{}, &res)
	if !slices.Equal(res.Sure, []int{0, 2}) {
		t.Fatalf("key probe: sure %v, want [0 2]", res.Sure)
	}
	if slices.ContainsFunc(pl.groups[:cap(pl.groups)], func(g []int) bool { return g != nil }) ||
		slices.ContainsFunc(pl.cached[:cap(pl.cached)], func(ix *relation.Index) bool { return ix != nil }) {
		t.Error("the plan keeps an index or an index group")
	}
	if len(pl.nodes) < arms {
		t.Fatalf("%d pooled nodes for a union of %d arms", len(pl.nodes), arms)
	}
	if got, least := res.ScratchBytes(), arms*int(unsafe.Sizeof(planNode{})); got < least {
		t.Errorf("ScratchBytes = %d, under the %d B of the pooled nodes alone", got, least)
	}
}

// TestSelectIntoAllocs: a reused Result plans and answers an Eq, an ∧ of
// Eqs, an In with a repeated value and a two-arm ∨ without allocating —
// the In deduplicates into the plan's own scratch, the ∨ sketches its arms
// straight into the union's — and between calls the plan holds none of
// the In's values.
func TestSelectIntoAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	s := blockScheme()
	r := relation.New(s)
	for _, row := range [][3]string{{"a1", "b1", "c1"}, {"a2", "b1", "c2"}, {"a1", "b2", "c2"}, {"a2", "b2", "c1"}} {
		r.InsertUnchecked(relation.Tuple{value.NewConst(row[0]), value.NewConst(row[1]), value.NewConst(row[2])})
	}
	var res Result
	for name, p := range map[string]Pred{
		"Eq": Eq{Attr: 0, Const: "a1"},
		"∧":  And{P: Eq{Attr: 0, Const: "a1"}, Q: Eq{Attr: 1, Const: "b2"}},
		"In": In{Attr: 1, Values: []string{"b2", "b1", "b2"}},
		"∨":  Or{P: Eq{Attr: 0, Const: "a2"}, Q: In{Attr: 2, Values: []string{"c1"}}},
	} {
		SelectInto(r, p, Options{}, &res) // grow the buffers, build the indexes
		if n := testing.AllocsPerRun(100, func() { SelectInto(r, p, Options{}, &res) }); n != 0 {
			t.Errorf("SelectInto of %s (%v) into a reused Result allocates %v, want 0", name, p, n)
		}
		for _, v := range res.plan.vals[:cap(res.plan.vals)] {
			if v != "" {
				t.Fatalf("after %s the plan keeps the In value %q", name, v)
			}
		}
	}
}

package query

import (
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"testing"

	"fdnull/internal/relation"
	"fdnull/internal/schema"
	"fdnull/internal/value"
)

func dedupeScheme() *schema.Scheme {
	return schema.Uniform("R", []string{"A", "B"},
		schema.IntDomain("d", "v", 6))
}

func dedupeRel(t *testing.T) *relation.Relation {
	t.Helper()
	return relation.MustFromRows(dedupeScheme(),
		[]string{"v1", "v2"},
		[]string{"v1", "v3"},
		[]string{"v2", "v2"},
		[]string{"v3", "-"},
	)
}

// assertAscendingNoDupes checks the plan-node invariant the probes and
// operators rely on: candidates strictly ascending, hence duplicate-free.
func assertAscendingNoDupes(t *testing.T, label string, rows []int) {
	t.Helper()
	for i := 1; i < len(rows); i++ {
		if rows[i] <= rows[i-1] {
			t.Fatalf("%s: candidates not strictly ascending: %v", label, rows)
		}
	}
}

// TestInDedupeAtPlanTime is the regression test for repeated In values:
// an `A in {v1, v1, v1}` must probe each group once — the same
// candidates, estimate, and cost as the deduplicated predicate — at a
// top-level probe and inside ∨ arms.
func TestInDedupeAtPlanTime(t *testing.T) {
	r := dedupeRel(t)
	dup := In{Attr: 0, Values: []string{"v1", "v1", "v2", "v1"}}
	clean := In{Attr: 0, Values: []string{"v1", "v2"}}

	// v2 planner: identical probe nodes.
	pd := PlanPred(r, r, dup)
	pc := PlanPred(r, r, clean)
	if pd.root == nil || pc.root == nil {
		t.Fatal("In must plan to a probe")
	}
	if !slices.Equal(pd.root.rows, pc.root.rows) {
		t.Errorf("duplicated In changed the candidates: %v vs %v", pd.root.rows, pc.root.rows)
	}
	if pd.root.est != pc.root.est {
		t.Errorf("duplicated In changed the estimate: %d vs %d", pd.root.est, pc.root.est)
	}
	assertAscendingNoDupes(t, "v2 probe", pd.root.rows)
	var gd, gc Result
	pd.Run(r, &gd)
	pc.Run(r, &gc)
	if !gd.Equal(gc) {
		t.Error("duplicated In changed the answer")
	}

	// Inside an ∨ arm: the union must not double-count either.
	or := Or{P: dup, Q: Eq{Attr: 1, Const: "v3"}}
	orClean := Or{P: clean, Q: Eq{Attr: 1, Const: "v3"}}
	pod, poc := PlanPred(r, r, or), PlanPred(r, r, orClean)
	if !slices.Equal(pod.root.rows, poc.root.rows) || pod.root.est != poc.root.est {
		t.Errorf("duplicated In inside ∨ changed the union: rows %v vs %v, est %d vs %d",
			pod.root.rows, poc.root.rows, pod.root.est, poc.root.est)
	}
	assertAscendingNoDupes(t, "union", pod.root.rows)
}

// TestSpineEq: the accessor sees Eq atoms on the ∧-spine — either side,
// any depth, the leftmost when two name the attribute — and nothing
// under ∨ or ¬, no In, no EqAttr; and it allocates nothing.
func TestSpineEq(t *testing.T) {
	eq := func(a schema.Attr, c string) Pred { return Eq{Attr: a, Const: c} }
	cases := []struct {
		p    Pred
		want string
		ok   bool
	}{
		{eq(0, "v1"), "v1", true},
		{eq(1, "v1"), "", false},
		{And{P: eq(1, "v2"), Q: eq(0, "v1")}, "v1", true},
		{And{P: And{P: eq(1, "v2"), Q: And{P: eq(1, "v3"), Q: eq(0, "v4")}}, Q: eq(1, "v5")}, "v4", true},
		{And{P: eq(0, "v1"), Q: eq(0, "v2")}, "v1", true},
		{Or{P: eq(0, "v1"), Q: eq(1, "v2")}, "", false},
		{Not{P: eq(0, "v1")}, "", false},
		{And{P: Not{P: eq(0, "v1")}, Q: Or{P: eq(0, "v1"), Q: eq(0, "v2")}}, "", false},
		{In{Attr: 0, Values: []string{"v1"}}, "", false},
		{EqAttr{A: 0, B: 1}, "", false},
	}
	for _, tc := range cases {
		if c, ok := SpineEq(tc.p, 0); ok != tc.ok || ok && c != tc.want {
			t.Errorf("SpineEq(%s, #0) = %q, %v; want %q, %v", tc.p, c, ok, tc.want, tc.ok)
		}
	}
	deep := cases[3].p
	if n := testing.AllocsPerRun(100, func() { SpineEq(deep, 0) }); n != 0 {
		t.Errorf("SpineEq allocates %v per call", n)
	}
}

// TestExplainRendersPushedAtomOnDemand: plan nodes carry the atom, not
// its rendering, and the report still names the probe. A = B's size is
// a guess from the pair index (6 rows / 6 values = 1) while five rows
// agree, so the A = B probe is chosen over the In probe (3 rows) and
// gathers 5; the In is evaluated in the residual.
func TestExplainRendersPushedAtomOnDemand(t *testing.T) {
	r := relation.MustFromRows(dedupeScheme(),
		[]string{"v1", "v1"},
		[]string{"v2", "v2"},
		[]string{"v3", "v3"},
		[]string{"v4", "v4"},
		[]string{"v5", "v5"},
		[]string{"v1", "v2"},
	)
	p := And{P: EqAttr{A: 0, B: 1}, Q: In{Attr: 1, Values: []string{"v3", "v2"}}}
	res, ex := SelectExplain(r, p, Options{})
	if !slices.Equal(res.Sure, []int{1, 2}) {
		t.Fatalf("want [1 2], got sure %v\n%s", res.Sure, ex)
	}
	if n := ex.Root; n.Op != opProbe || n.Detail != `#0 = #1` || n.Est != 1 || n.Actual != 5 || len(n.Kids) != 0 {
		t.Errorf("want one probe #0 = #1 (est 1, got 5)\n%s", ex)
	}
	if !slices.ContainsFunc(ex.Residual, func(c ExplainConjunct) bool { return c.Pred == `#1 in {"v3","v2"}` }) {
		t.Errorf("the In is not in the residual\n%s", ex)
	}
}

// empSizingScheme is EMP(D, E, SL, CT) with D -> CT and D,E -> SL in
// mind: 24 departments, employee numbers 1..400 within a department,
// 8 salaries, 3 contract types.
func empSizingScheme() *schema.Scheme {
	return schema.MustNew("EMP", []string{"D", "E", "SL", "CT"}, []*schema.Domain{
		schema.IntDomain("dept", "d", 24),
		schema.IntDomain("emp", "e", 400),
		schema.IntDomain("sal", "s", 8),
		schema.IntDomain("ct", "c", 3),
	})
}

// TestPlanSizesProbedGroup plans over an instance shaped like a store's
// in chase normal form: departments drawn Zipf-skewed, every row of a
// department agreeing on CT (a constant, or in every fifth department
// one shared mark), a third of the salaries null, D and E never null,
// and the {D,E} index cached as the write path keeps it for D,E -> SL.
// Across delta inserts, deletes, salary resolutions and renumberings it
// checks that
//
//   - every Eq and In probe's est is the size it gathered;
//   - D = d and CT = c on the hot department gathers the D probe alone:
//     the CT group holds every row of the D group and more;
//   - D = d and E = e probes the {D,E} index and evaluates one
//     candidate (none when no such employee is left), and the planner
//     builds no index on two attributes;
//   - every answer is the scan's.
func TestPlanSizesProbedGroup(t *testing.T) {
	s := empSizingScheme()
	rng := rand.New(rand.NewSource(36))
	zipf := rand.NewZipf(rng, 1.3, 1, 23)
	r := relation.New(s)
	nextE := make([]int, 24)
	konst := func(a schema.Attr, k int) value.V { return value.NewConst(s.Domain(a).Values[k]) }
	ct := func(d int) value.V {
		if d%5 == 4 {
			return value.NewNull(1000 + d) // the department's one contract mark
		}
		return konst(3, d%3)
	}
	newRow := func() relation.Tuple {
		d := int(zipf.Uint64())
		if nextE[d] == 399 { // e400 stays unused
			return nil
		}
		sl := konst(2, rng.Intn(8))
		if rng.Intn(3) == 0 {
			sl = r.FreshNull()
		}
		nextE[d]++
		return relation.Tuple{konst(0, d), konst(1, nextE[d]-1), sl, ct(d)}
	}
	for r.Len() < 600 {
		if row := newRow(); row != nil {
			r.InsertUnchecked(row)
		}
	}
	de := schema.NewAttrSet(0, 1)
	r.IndexOn(de)
	hot := s.Domain(0).Values[0]
	if g, _ := r.IndexOn(schema.NewAttrSet(0)).Probe(relation.Tuple{value.NewConst(hot), {}, {}, {}}); len(g) < 5*600/24 {
		t.Fatalf("department %s holds %d of 600 rows; the instance is not skewed", hot, len(g))
	}
	var res Result
	for step := 0; step < 60; step++ {
		probe := r.Tuple(rng.Intn(r.Len())) // an existing employee
		d, e, c := probe[0].Const(), probe[1].Const(), s.Domain(3).Values[rng.Intn(3)]
		hotCT := ct(0).Const()
		preds := map[string]Pred{
			"hot group": And{P: Eq{Attr: 0, Const: hot}, Q: Eq{Attr: 3, Const: hotCT}},
			"point":     And{P: Eq{Attr: 0, Const: d}, Q: Eq{Attr: 1, Const: e}},
			"hot point": And{P: Eq{Attr: 0, Const: hot}, Q: Eq{Attr: 1, Const: "e1"}}, // e1 is in most departments
			"point, E first and a salary": And{P: Eq{Attr: 1, Const: e},
				Q: And{P: Eq{Attr: 2, Const: "s1"}, Q: Eq{Attr: 0, Const: d}}},
			"group":   And{P: Eq{Attr: 0, Const: d}, Q: Eq{Attr: 3, Const: c}},
			"in":      And{P: In{Attr: 0, Values: []string{d, hot, "d9"}}, Q: In{Attr: 2, Values: []string{"s2", "s3"}}},
			"missing": And{P: Eq{Attr: 0, Const: d}, Q: Eq{Attr: 1, Const: "e400"}},
		}
		for name, p := range preds {
			want := Select(r, p)
			SelectInto(r, p, Options{}, &res)
			got, ex := SelectExplain(r, p, Options{})
			if !res.Equal(want) || !got.Equal(want) {
				t.Fatalf("step %d, %s %v: planned %v / %v, scan %v", step, name, p, res, got, want)
			}
			var walk func(n *ExplainNode)
			walk = func(n *ExplainNode) {
				if n.Op == opProbe && n.Est != n.Actual {
					t.Errorf("step %d, %s: probe %s sized %d, gathered %d", step, name, n.Detail, n.Est, n.Actual)
				}
				for _, k := range n.Kids {
					walk(k)
				}
			}
			walk(ex.Root)
			switch name {
			case "hot group":
				if ex.Root.Op != opProbe || ex.Root.Detail != `#0 = "`+hot+`"` {
					t.Errorf("step %d: the hot group gathers more than its D probe:\n%s", step, ex)
				}
			case "point", "point, E first and a salary", "hot point":
				if ex.Evaluated > 1 || ex.Evaluated < len(want.Sure) || ex.Root.Op != opProbe || !strings.HasPrefix(ex.Root.Detail, "(") {
					t.Errorf("step %d, %s: want one candidate from the {D,E} probe:\n%s", step, name, ex)
				}
			}
		}
		for _, ix := range r.CachedIndexes(nil) {
			if set := ix.Set(); set.Len() > 1 && set != de {
				t.Fatalf("step %d: the planner built an index on %v", step, set.Attrs())
			}
		}
		switch i := rng.Intn(r.Len()); rng.Intn(4) {
		case 0:
			if row := newRow(); row != nil {
				if _, err := r.InsertDelta(row); err != nil {
					t.Fatal(err)
				}
			}
		case 1:
			r.DeleteDelta(i)
		case 2:
			if r.Tuple(i)[2].IsNull() {
				r.SetCellDelta(i, 2, konst(2, rng.Intn(8)))
			}
		default: // a renumbering: the row takes its department's next number
			if dn, _ := strconv.Atoi(r.Tuple(i)[0].Const()[1:]); nextE[dn-1] < 399 {
				r.SetCellDelta(i, 1, konst(1, nextE[dn-1]))
				nextE[dn-1]++
			}
		}
	}
}

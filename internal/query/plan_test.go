package query

import (
	"slices"
	"testing"

	"fdnull/internal/relation"
	"fdnull/internal/schema"
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
	if !pd.Run(r).Equal(pc.Run(r)) {
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
// its rendering, and the report still names every probe.
func TestExplainRendersPushedAtomOnDemand(t *testing.T) {
	r := dedupeRel(t)
	p := And{P: Eq{Attr: 0, Const: "v1"}, Q: In{Attr: 1, Values: []string{"v3", "v2"}}}
	_, ex := SelectExplain(r, p, Options{})
	var details []string
	var walk func(n *ExplainNode)
	walk = func(n *ExplainNode) {
		if n.Op == opProbe {
			details = append(details, n.Detail)
		} else if n.Detail != "" {
			t.Errorf("%s node carries detail %q", n.Op, n.Detail)
		}
		for _, k := range n.Kids {
			walk(k)
		}
	}
	walk(ex.Root)
	slices.Sort(details)
	if want := []string{`#0 = "v1"`, `#1 in {"v3","v2"}`}; !slices.Equal(details, want) {
		t.Errorf("probe details %q, want %q\n%s", details, want, ex)
	}
}

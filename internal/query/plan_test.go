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

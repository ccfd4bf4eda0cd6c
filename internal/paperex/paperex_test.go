package paperex

import (
	"testing"

	"fdnull/internal/chase"
	"fdnull/internal/eval"
	"fdnull/internal/relation"
	"fdnull/internal/testfds"
	"fdnull/internal/tvl"
)

func TestFigure12_BothFDsHold(t *testing.T) {
	// "It is trivial to verify that the functional dependencies
	// E# → SL,D# and D# → CT hold in the instance r of figure 1.2."
	_, fds, r := Figure12()
	ok, err := eval.StrongSatisfied(fds, r)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Error("Figure 1.2 must strongly satisfy both FDs")
	}
	if tok, _ := testfds.StrongSatisfied(r, fds); !tok {
		t.Error("TEST-FDs must agree on Figure 1.2")
	}
}

func TestFigure13_WeakButNotStrong(t *testing.T) {
	_, fds, r := Figure13()
	strong, err := eval.StrongSatisfied(fds, r)
	if err != nil {
		t.Fatal(err)
	}
	if strong {
		t.Error("Figure 1.3 has nulls under shared determinants; not strong")
	}
	ok, _, err := chase.WeaklySatisfiable(r, fds)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Error("Figure 1.3 must be weakly satisfiable")
	}
}

func TestFigure2Verdicts(t *testing.T) {
	_, f1, r1 := Figure2R1()
	v, err := eval.Evaluate(f1, r1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if v.Truth != tvl.True || v.Case != eval.CaseT2 {
		t.Errorf("f(t1,r1) = %v, want true [T2]", v)
	}

	_, f2, r2 := Figure2R2()
	v, err = eval.Evaluate(f2, r2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if v.Truth != tvl.True || v.Case != eval.CaseT3 {
		t.Errorf("f(t1,r2) = %v, want true [T3]", v)
	}

	_, f3, r3 := Figure2R3()
	v, err = eval.Evaluate(f3, r3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if v.Truth != tvl.True || v.Case != eval.CaseT3 {
		t.Errorf("f(t1,r3) = %v, want true [T3]", v)
	}

	_, f4, r4 := Figure2R4()
	v, err = eval.Evaluate(f4, r4, 0)
	if err != nil {
		t.Fatal(err)
	}
	if v.Truth != tvl.False || v.Case != eval.CaseF2 {
		t.Errorf("f(t1,r4) = %v, want false [F2]", v)
	}
}

func TestSection6Example(t *testing.T) {
	_, fds, r := Section6()
	each, err := eval.EachWeaklyHolds(fds, r)
	if err != nil {
		t.Fatal(err)
	}
	if !each {
		t.Error("each FD must weakly hold individually")
	}
	set, err := eval.WeakSatisfied(fds, r)
	if err != nil {
		t.Fatal(err)
	}
	if set {
		t.Error("the set must not be weakly satisfiable")
	}
	ok, _, err := chase.WeaklySatisfiable(r, fds)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("the chase must detect the contradiction")
	}
}

func TestFigure5OrderDependence(t *testing.T) {
	_, fds, r := Figure5()
	res1, err := chase.Run(r, fds, chase.Options{Mode: chase.Plain, RuleOrder: []int{0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	res2, err := chase.Run(r, fds, chase.Options{Mode: chase.Plain, RuleOrder: []int{1, 0}})
	if err != nil {
		t.Fatal(err)
	}
	if relation.Equal(res1.Relation, res2.Relation) {
		t.Error("plain NS-rules must be order-dependent on Figure 5")
	}
	ext1, err := chase.RunPairwise(r, fds, chase.Options{Mode: chase.Extended, RuleOrder: []int{0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	ext2, err := chase.RunPairwise(r, fds, chase.Options{Mode: chase.Extended, RuleOrder: []int{1, 0}})
	if err != nil {
		t.Fatal(err)
	}
	if !relation.Equal(ext1.Relation, ext2.Relation) {
		t.Error("extended system must be order-independent (Theorem 4)")
	}
	// "...resulting in an instance with all values in the B column equal
	// to nothing."
	b := ext1.Relation.Scheme().MustAttr("B")
	for i := 0; i < ext1.Relation.Len(); i++ {
		if !ext1.Relation.Tuple(i)[b].IsNothing() {
			t.Errorf("B cell of tuple %d should be nothing", i)
		}
	}
}

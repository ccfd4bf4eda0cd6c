package chase

import (
	"math/rand"
	"testing"

	"fdnull/internal/eval"
	"fdnull/internal/fd"
	"fdnull/internal/relation"
	"fdnull/internal/schema"
)

func abcScheme() *schema.Scheme {
	return schema.Uniform("R", []string{"A", "B", "C"},
		schema.IntDomain("d", "v", 4))
}

func TestSubstituteNullRuleA(t *testing.T) {
	// NS-rule (a): A→B, two tuples agree on A, one B is null ⇒ the null is
	// substituted with the constant.
	s := abcScheme()
	fds := fd.MustParseSet(s, "A -> B")
	r := relation.MustFromRows(s,
		[]string{"v1", "v2", "v1"},
		[]string{"v1", "-", "v3"})
	res, err := Run(r, fds, Options{Mode: Plain})
	if err != nil {
		t.Fatal(err)
	}
	got := res.Relation.Tuple(1)[1]
	if !got.IsConst() || got.Const() != "v2" {
		t.Errorf("null should be substituted with v2, got %v", got)
	}
	if res.Applications != 1 {
		t.Errorf("Applications = %d, want 1", res.Applications)
	}
	if len(res.NECs) != 0 {
		t.Errorf("no NECs expected, got %v", res.NECs)
	}
	if !res.Consistent {
		t.Error("consistent instance reported inconsistent")
	}
}

func TestIntroduceNECRuleB(t *testing.T) {
	// NS-rule (b): both Y-cells null ⇒ a NEC is introduced.
	s := abcScheme()
	fds := fd.MustParseSet(s, "A -> B")
	r := relation.MustFromRows(s,
		[]string{"v1", "-1", "v1"},
		[]string{"v1", "-2", "v3"})
	res, err := Run(r, fds, Options{Mode: Plain})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.NECs) != 1 || len(res.NECs[0]) != 2 {
		t.Fatalf("want one NEC of two marks, got %v", res.NECs)
	}
	if res.NECs[0][0] != 1 || res.NECs[0][1] != 2 {
		t.Errorf("NEC = %v, want [1 2]", res.NECs[0])
	}
	// The resolved relation renames both nulls to the canonical mark.
	b0, b1 := res.Relation.Tuple(0)[1], res.Relation.Tuple(1)[1]
	if !b0.IsNull() || !b1.IsNull() || b0.Mark() != b1.Mark() {
		t.Errorf("same-class nulls should share a mark: %v vs %v", b0, b1)
	}
}

func TestTransitiveSubstitutionThroughNEC(t *testing.T) {
	// A NEC created first, then one member bound: both cells must resolve
	// to the constant.
	s := abcScheme()
	fds := fd.MustParseSet(s, "A -> B; C -> B")
	r := relation.MustFromRows(s,
		[]string{"v1", "-1", "v1"},
		[]string{"v1", "-2", "v2"},
		[]string{"v4", "v3", "v2"}) // C=v2 matches tuple 1, binds -2 := v3
	res, err := Run(r, fds, Options{Mode: Plain})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		got := res.Relation.Tuple(i)[1]
		if !got.IsConst() || got.Const() != "v3" {
			t.Errorf("tuple %d B = %v, want v3 (through NEC)", i, got)
		}
	}
}

func TestSection6ChainDetection(t *testing.T) {
	// Section 6 opening example: f1: A→B, f2: B→C on
	//   (a1, -, c1)
	//   (a1, -, c2)
	// A→B introduces NEC between the B-nulls; B→C then forces c1 = c2,
	// which the extended system turns into nothing ⇒ not weakly
	// satisfiable.
	s := abcScheme()
	fds := fd.MustParseSet(s, "A -> B; B -> C")
	r := relation.MustFromRows(s,
		[]string{"v1", "-", "v1"},
		[]string{"v1", "-", "v2"})
	ok, res, err := WeaklySatisfiable(r, fds)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("Section 6 instance must not be weakly satisfiable")
	}
	// The C column collapses to nothing.
	if !res.Relation.Tuple(0)[2].IsNothing() || !res.Relation.Tuple(1)[2].IsNothing() {
		t.Errorf("C cells should be nothing:\n%s", res.Relation)
	}
	// Ground truth agreement with the exponential definition.
	want, err := eval.WeakSatisfied(fds, r)
	if err != nil {
		t.Fatal(err)
	}
	if want {
		t.Error("brute force disagrees: should not be weakly satisfiable")
	}
}

// figure5 reconstructs the paper's Figure 5 shape: R(A,B,C) with A→B and
// C→B, where the two rule orders reach different minimally incomplete
// states under the plain system.
func figure5() (*schema.Scheme, []fd.FD, *relation.Relation) {
	s := schema.Uniform("R", []string{"A", "B", "C"}, schema.IntDomain("d", "v", 4))
	fds := fd.MustParseSet(s, "A -> B; C -> B")
	r := relation.MustFromRows(s,
		[]string{"v1", "v2", "v1"}, // (a,  b1, c )
		[]string{"v1", "-", "v3"},  // (a,  ⊥,  c′)
		[]string{"v4", "v3", "v3"}) // (a′, b2, c′)
	return s, fds, r
}

func TestChase_OrderDependencePlain(t *testing.T) {
	_, fds, r := figure5()
	// Order 1: A→B first binds ⊥ := v2; C→B then faces v2 vs v3, stuck.
	res1, err := Run(r, fds, Options{Mode: Plain, RuleOrder: []int{0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	// Order 2: C→B first binds ⊥ := v3; A→B then faces v2 vs v3, stuck.
	res2, err := Run(r, fds, Options{Mode: Plain, RuleOrder: []int{1, 0}})
	if err != nil {
		t.Fatal(err)
	}
	b1 := res1.Relation.Tuple(1)[1]
	b2 := res2.Relation.Tuple(1)[1]
	if !b1.IsConst() || !b2.IsConst() || b1.Const() == b2.Const() {
		t.Fatalf("plain system should be order-dependent: %v vs %v", b1, b2)
	}
	if b1.Const() != "v2" || b2.Const() != "v3" {
		t.Errorf("expected v2/v3, got %v/%v", b1, b2)
	}
	if len(res1.Stuck) == 0 || len(res2.Stuck) == 0 {
		t.Error("both orders should report a stuck classical conflict")
	}
	if !relation.Equal(res1.Relation, res1.Relation) {
		t.Error("sanity")
	}
	if relation.Equal(res1.Relation, res2.Relation) {
		t.Error("the two minimally incomplete states must differ (Figure 5)")
	}
}

func TestChase_ChurchRosserExtended(t *testing.T) {
	// Theorem 4(a): under the extended system both orders converge to the
	// same unique instance — here, the whole B-column becomes nothing
	// (including the constants equal to the merged ones, per the paper).
	_, fds, r := figure5()
	res1, err := RunPairwise(r, fds, Options{Mode: Extended, RuleOrder: []int{0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	res2, err := RunPairwise(r, fds, Options{Mode: Extended, RuleOrder: []int{1, 0}})
	if err != nil {
		t.Fatal(err)
	}
	res3, err := Run(r, fds, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !relation.Equal(res1.Relation, res2.Relation) {
		t.Fatalf("extended system must be order-independent:\n%s\nvs\n%s",
			res1.Relation, res2.Relation)
	}
	if !relation.Equal(res1.Relation, res3.Relation) {
		t.Fatalf("congruence engine must agree with naive:\n%s\nvs\n%s",
			res1.Relation, res3.Relation)
	}
	for i := 0; i < 3; i++ {
		if !res1.Relation.Tuple(i)[1].IsNothing() {
			t.Errorf("B cell of tuple %d should be nothing:\n%s", i, res1.Relation)
		}
	}
	if res1.Consistent {
		t.Error("poisoned instance must be inconsistent")
	}
}

func TestWeaklySatisfiablePositive(t *testing.T) {
	s := abcScheme()
	fds := fd.MustParseSet(s, "A -> B; B -> C")
	r := relation.MustFromRows(s,
		[]string{"v1", "-", "v1"},
		[]string{"v1", "-", "v1"}, // same C: the NEC chain stays consistent
		[]string{"v2", "v2", "-"})
	ok, res, err := WeaklySatisfiable(r, fds)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatalf("instance should be weakly satisfiable:\n%s", res.Relation)
	}
	want, err := eval.WeakSatisfied(fds, r)
	if err != nil {
		t.Fatal(err)
	}
	if !want {
		t.Error("brute force disagrees")
	}
}

func TestMinimallyIncomplete(t *testing.T) {
	s := abcScheme()
	fds := fd.MustParseSet(s, "A -> B")
	done := relation.MustFromRows(s,
		[]string{"v1", "v2", "v1"},
		[]string{"v2", "-", "v3"}) // A-values differ: no rule applies
	ok, err := MinimallyIncomplete(done, fds, Plain)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Error("instance is already minimally incomplete")
	}
	notDone := relation.MustFromRows(s,
		[]string{"v1", "v2", "v1"},
		[]string{"v1", "-", "v3"})
	ok, err = MinimallyIncomplete(notDone, fds, Plain)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("a rule applies; not minimally incomplete")
	}
}

func TestIdempotence(t *testing.T) {
	// Chasing a chase result must change nothing (fixpoint).
	s := abcScheme()
	fds := fd.MustParseSet(s, "A -> B; B -> C")
	r := relation.MustFromRows(s,
		[]string{"v1", "-", "-"},
		[]string{"v1", "-", "v2"},
		[]string{"v3", "v1", "-"})
	res, err := Run(r, fds, Options{})
	if err != nil {
		t.Fatal(err)
	}
	res2, err := Run(res.Relation, fds, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Applications != 0 {
		t.Errorf("second chase applied %d rules; fixpoint violated", res2.Applications)
	}
	if !relation.Equal(res.Relation, res2.Relation) {
		t.Error("second chase changed the instance")
	}
}

func TestInputNothingPropagates(t *testing.T) {
	s := abcScheme()
	fds := fd.MustParseSet(s, "A -> B")
	r := relation.MustFromRows(s,
		[]string{"v1", "!", "v1"},
		[]string{"v1", "-", "v2"})
	res, err := RunPairwise(r, fds, Options{Mode: Extended})
	if err != nil {
		t.Fatal(err)
	}
	if res.Consistent {
		t.Error("input nothing must make the result inconsistent")
	}
	if !res.Relation.Tuple(1)[1].IsNothing() {
		t.Error("null merged with nothing must become nothing")
	}
}

func TestRuleOrderValidation(t *testing.T) {
	s := abcScheme()
	fds := fd.MustParseSet(s, "A -> B; B -> C")
	r := relation.MustFromRows(s, []string{"v1", "v2", "v3"})
	if _, err := Run(r, fds, Options{RuleOrder: []int{0}}); err == nil {
		t.Error("short RuleOrder must error")
	}
	if _, err := Run(r, fds, Options{RuleOrder: []int{0, 0}}); err == nil {
		t.Error("non-permutation RuleOrder must error")
	}
	// Plain has one implementation: Run runs the pairwise passes for it.
	_, fds, r = figure5()
	a, err := Run(r, fds, Options{Mode: Plain})
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunPairwise(r, fds, Options{Mode: Plain})
	if err != nil {
		t.Fatal(err)
	}
	if !relation.Equal(a.Relation, b.Relation) || a.Applications != b.Applications {
		t.Error("Run in Plain mode must run the pairwise passes")
	}
}

func TestChase_AgreesWithBruteForce_Random(t *testing.T) {
	// Theorem 4(b), mechanized: extended chase consistency must equal
	// exists-a-satisfying-completion on random small instances.
	//
	// The paper's Section 6 machinery works over symbols and therefore
	// assumes domains large enough that a surviving null always has a
	// fresh completion (the Section 4 "sufficiently large domain"
	// argument). We honor that assumption here: the domain has more values
	// than the instance has symbols. TestSmallDomainDivergence pins the
	// behaviour when the assumption is violated.
	rng := rand.New(rand.NewSource(4242))
	dom := schema.IntDomain("d", "v", 12)
	s := schema.Uniform("R", []string{"A", "B", "C"}, dom)
	fdPool := [][]fd.FD{
		fd.MustParseSet(s, "A -> B"),
		fd.MustParseSet(s, "A -> B; B -> C"),
		fd.MustParseSet(s, "A -> B,C"),
		fd.MustParseSet(s, "A,B -> C; C -> A"),
	}
	for trial := 0; trial < 200; trial++ {
		fds := fdPool[rng.Intn(len(fdPool))]
		r := relation.New(s)
		n := 1 + rng.Intn(4)
		nulls := 0
		for i := 0; i < n; i++ {
			row := make([]string, 3)
			for j := range row {
				roll := rng.Intn(6)
				// Cap null cells so the brute-force enumeration stays
				// feasible (12^nulls completions).
				if roll <= 1 && nulls < 4 {
					nulls++
					if roll == 0 {
						row[j] = "-"
					} else {
						row[j] = "-1" // a shared mark across the instance
					}
				} else {
					// Draw constants from a small sub-range so X-groups
					// actually collide and rules fire.
					row[j] = dom.Values[rng.Intn(3)]
				}
			}
			_ = r.InsertRow(row...) // skip duplicates silently
		}
		if r.Len() == 0 {
			continue
		}
		got, _, err := WeaklySatisfiable(r, fds)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		want, err := eval.WeakSatisfied(fds, r)
		if err != nil {
			t.Fatalf("trial %d brute force: %v", trial, err)
		}
		if got != want {
			t.Fatalf("trial %d: chase says %v, brute force says %v\nF = %s\n%s",
				trial, got, want, fd.FormatSet(s, fds), r)
		}
	}
}

func TestSmallDomainDivergence(t *testing.T) {
	// The paper's caveat, pinned: with |dom| = 3 this instance is
	// unsatisfiable by domain exhaustion (every substitution of the shared
	// null violates AB→C or C→A), yet the symbol-level chase finds no
	// contradiction. Section 4 calls the exhaustive test "domain and
	// state-dependent ... unacceptable complexity" and argues for large
	// domains instead; Section 6's theorems inherit that assumption.
	dom := schema.IntDomain("d", "v", 3)
	s := schema.Uniform("R", []string{"A", "B", "C"}, dom)
	fds := fd.MustParseSet(s, "A,B -> C; C -> A")
	r := relation.MustFromRows(s,
		[]string{"v3", "v1", "v2"},
		[]string{"-1", "-1", "v3"},
		[]string{"v1", "v2", "-2"},
		[]string{"v1", "v1", "-1"})
	got, _, err := WeaklySatisfiable(r, fds)
	if err != nil {
		t.Fatal(err)
	}
	if !got {
		t.Error("symbol-level chase should report consistent (no forced merge)")
	}
	want, err := eval.WeakSatisfied(fds, r)
	if err != nil {
		t.Fatal(err)
	}
	if want {
		t.Error("domain-aware brute force should report unsatisfiable (exhaustion)")
	}
}

func TestNaiveAndCongruenceAgree_Random(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	dom := schema.IntDomain("d", "v", 3)
	s := schema.Uniform("R", []string{"A", "B", "C", "D"}, dom)
	for trial := 0; trial < 200; trial++ {
		var fds []fd.FD
		nf := 1 + rng.Intn(3)
		for i := 0; i < nf; i++ {
			x := schema.AttrSet(rng.Intn(15) + 1)
			y := schema.AttrSet(rng.Intn(15) + 1).Diff(x)
			if y.Empty() {
				continue
			}
			fds = append(fds, fd.New(x, y))
		}
		if len(fds) == 0 {
			continue
		}
		r := relation.New(s)
		n := 1 + rng.Intn(5)
		for i := 0; i < n; i++ {
			row := make([]string, 4)
			for j := range row {
				if rng.Intn(3) == 0 {
					row[j] = "-"
				} else {
					row[j] = dom.Values[rng.Intn(dom.Size())]
				}
			}
			_ = r.InsertRow(row...)
		}
		if r.Len() == 0 {
			continue
		}
		a, err := RunPairwise(r, fds, Options{Mode: Extended})
		if err != nil {
			t.Fatal(err)
		}
		b, err := Run(r, fds, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !relation.Equal(a.Relation, b.Relation) {
			t.Fatalf("trial %d: engines disagree\nnaive:\n%s\ncongruence:\n%s",
				trial, a.Relation, b.Relation)
		}
		if a.Consistent != b.Consistent {
			t.Fatalf("trial %d: consistency disagreement", trial)
		}
	}
}

func TestChurchRosser_RandomOrders(t *testing.T) {
	// Theorem 4(a) on random instances: every FD-order permutation of the
	// extended naive engine yields the same normal form.
	rng := rand.New(rand.NewSource(123))
	dom := schema.IntDomain("d", "v", 3)
	s := schema.Uniform("R", []string{"A", "B", "C"}, dom)
	fds := fd.MustParseSet(s, "A -> B; B -> C; C -> A")
	orders := [][]int{{0, 1, 2}, {2, 1, 0}, {1, 2, 0}, {0, 2, 1}}
	for trial := 0; trial < 100; trial++ {
		r := relation.New(s)
		n := 2 + rng.Intn(4)
		for i := 0; i < n; i++ {
			row := make([]string, 3)
			for j := range row {
				if rng.Intn(3) == 0 {
					row[j] = "-"
				} else {
					row[j] = dom.Values[rng.Intn(dom.Size())]
				}
			}
			_ = r.InsertRow(row...)
		}
		if r.Len() == 0 {
			continue
		}
		var first *relation.Relation
		for _, ord := range orders {
			res, err := RunPairwise(r, fds, Options{Mode: Extended, RuleOrder: ord})
			if err != nil {
				t.Fatal(err)
			}
			if first == nil {
				first = res.Relation
			} else if !relation.Equal(first, res.Relation) {
				t.Fatalf("trial %d: order %v diverged\n%s\nvs\n%s",
					trial, ord, first, res.Relation)
			}
		}
	}
}

func TestPassesBounded(t *testing.T) {
	// The finiteness argument: passes are bounded by n·p+1.
	s := abcScheme()
	fds := fd.MustParseSet(s, "A -> B; B -> C")
	r := relation.MustFromRows(s,
		[]string{"v1", "-", "-"},
		[]string{"v1", "-", "-"},
		[]string{"v2", "-", "-"},
		[]string{"v2", "v3", "-"})
	res, err := Run(r, fds, Options{})
	if err != nil {
		t.Fatal(err)
	}
	bound := r.Len()*r.Scheme().Arity() + 1
	if res.Passes > bound {
		t.Errorf("passes %d exceed bound %d", res.Passes, bound)
	}
}

package testfds

import (
	"math/rand"
	"testing"

	"fdnull/internal/chase"
	"fdnull/internal/eval"
	"fdnull/internal/fd"
	"fdnull/internal/relation"
	"fdnull/internal/schema"
	"fdnull/internal/value"
)

func abcScheme() *schema.Scheme {
	return schema.Uniform("R", []string{"A", "B", "C"},
		schema.IntDomain("d", "v", 12))
}

func TestConventionTables(t *testing.T) {
	c1, c2 := value.NewConst("x"), value.NewConst("y")
	n1, n1b, n2 := value.NewNull(1), value.NewNull(1), value.NewNull(2)
	x := value.NewNothing()
	cases := []struct {
		a, b                 value.V
		seq, sneq, weq, wneq bool // strong eq/neq, weak eq/neq
	}{
		{c1, c1, true, false, true, false},
		{c1, c2, false, true, false, true},
		{c1, n1, true, true, false, false},
		{n1, n1b, true, false, true, false}, // same class
		{n1, n2, true, true, false, false},  // different classes
		{x, c1, false, true, false, true},
		{x, x, false, true, false, true},
	}
	for _, cse := range cases {
		if got := eq(Strong, cse.a, cse.b); got != cse.seq {
			t.Errorf("strong eq(%v,%v) = %v, want %v", cse.a, cse.b, got, cse.seq)
		}
		if got := neq(Strong, cse.a, cse.b); got != cse.sneq {
			t.Errorf("strong neq(%v,%v) = %v, want %v", cse.a, cse.b, got, cse.sneq)
		}
		if got := eq(Weak, cse.a, cse.b); got != cse.weq {
			t.Errorf("weak eq(%v,%v) = %v, want %v", cse.a, cse.b, got, cse.weq)
		}
		if got := neq(Weak, cse.a, cse.b); got != cse.wneq {
			t.Errorf("weak neq(%v,%v) = %v, want %v", cse.a, cse.b, got, cse.wneq)
		}
	}
}

func TestStrongConventionBasics(t *testing.T) {
	s := abcScheme()
	fds := fd.MustParseSet(s, "A -> B")
	// A null in B unifies-unequal with the constant: strong test fails.
	r := relation.MustFromRows(s,
		[]string{"v1", "-", "v1"},
		[]string{"v1", "v2", "v2"})
	ok, viol := StrongSatisfied(r, fds)
	if ok || viol == nil {
		t.Fatal("null vs constant under shared X must fail the strong test")
	}
	// Unique X-values: strongly satisfied even with nulls in Y.
	r2 := relation.MustFromRows(s,
		[]string{"v1", "-", "v1"},
		[]string{"v2", "v2", "v2"})
	if ok, _ := StrongSatisfied(r2, fds); !ok {
		t.Error("unique X must pass the strong test")
	}
}

func TestWeakConventionBasics(t *testing.T) {
	s := abcScheme()
	fds := fd.MustParseSet(s, "A -> B")
	// Under the weak convention, a null in X separates the tuples.
	r := relation.MustFromRows(s,
		[]string{"-", "v1", "v1"},
		[]string{"v1", "v2", "v2"})
	if ok, _ := Check(r, fds, Weak, Sorted); !ok {
		t.Error("null X must pass the weak test")
	}
	// Two constants disagreeing under equal X fail both conventions.
	r2 := relation.MustFromRows(s,
		[]string{"v1", "v1", "v1"},
		[]string{"v1", "v2", "v2"})
	if ok, _ := Check(r2, fds, Weak, Sorted); ok {
		t.Error("classical violation must fail the weak test")
	}
	if ok, _ := Check(r2, fds, Strong, Sorted); ok {
		t.Error("classical violation must fail the strong test")
	}
}

func TestSameClassNulls(t *testing.T) {
	s := abcScheme()
	fds := fd.MustParseSet(s, "A -> B")
	// Same-class nulls in Y: equal under both conventions — no violation
	// even though X matches.
	r := relation.MustFromRows(s,
		[]string{"v1", "-5", "v1"},
		[]string{"v1", "-5", "v2"})
	if ok, _ := Check(r, fds, Strong, Sorted); !ok {
		t.Error("same-class nulls must not violate under strong convention")
	}
	if ok, _ := Check(r, fds, Weak, Sorted); !ok {
		t.Error("same-class nulls must not violate under weak convention")
	}
	// Different classes: strong violated (they may be substituted apart),
	// weak satisfied (inequality involving nulls is negative).
	r2 := relation.MustFromRows(s,
		[]string{"v1", "-5", "v1"},
		[]string{"v1", "-6", "v2"})
	if ok, _ := Check(r2, fds, Strong, Sorted); ok {
		t.Error("different-class nulls under shared X must violate strong")
	}
	if ok, _ := Check(r2, fds, Weak, Sorted); !ok {
		t.Error("different-class nulls must not violate weak")
	}
}

func TestViolationWitness(t *testing.T) {
	s := abcScheme()
	fds := fd.MustParseSet(s, "A -> B; B -> C")
	r := relation.MustFromRows(s,
		[]string{"v1", "v1", "v1"},
		[]string{"v2", "v1", "v2"},
		[]string{"v2", "v1", "v3"}) // violates B->C against both earlier tuples
	for _, algo := range []Algorithm{Sorted, Bucket, Pairwise} {
		ok, viol := Check(r, fds, Weak, algo)
		if ok || viol == nil {
			t.Fatalf("%v: expected violation", algo)
		}
		if viol.T1 == viol.T2 || viol.T1 < 0 || viol.T2 >= r.Len() {
			t.Errorf("%v: bad witness %v", algo, viol)
		}
		// The witness must actually be a violating pair.
		t1, t2 := r.Tuple(viol.T1), r.Tuple(viol.T2)
		if !eqOn(Weak, t1, t2, viol.FD.X.Attrs()) || !neqOn(Weak, t1, t2, viol.FD.Y.Attrs()) {
			t.Errorf("%v: witness does not violate", algo)
		}
	}
}

func TestStrongAgainstSemantics_Random(t *testing.T) {
	// Theorem 2, mechanized: TEST-FDs with the strong convention must
	// agree with the least-extension definition of strong satisfiability.
	// Marks are column-local, as the paper's NECs always are.
	rng := rand.New(rand.NewSource(31))
	dom := schema.IntDomain("d", "v", 3)
	s := schema.Uniform("R", []string{"A", "B", "C"}, dom)
	fdPool := [][]fd.FD{
		fd.MustParseSet(s, "A -> B"),
		fd.MustParseSet(s, "A,B -> C"),
		fd.MustParseSet(s, "A -> B; B -> C"),
		fd.MustParseSet(s, "A -> B,C"),
	}
	for trial := 0; trial < 300; trial++ {
		fds := fdPool[rng.Intn(len(fdPool))]
		r := relation.New(s)
		n := 1 + rng.Intn(4)
		nulls := 0
		for i := 0; i < n; i++ {
			row := make([]string, 3)
			for j := range row {
				if rng.Intn(4) == 0 && nulls < 4 {
					nulls++
					if rng.Intn(3) == 0 {
						// Column-local shared mark: 100+column.
						row[j] = "-1" + string(rune('0'+j))
					} else {
						row[j] = "-"
					}
				} else {
					row[j] = dom.Values[rng.Intn(dom.Size())]
				}
			}
			_ = r.InsertRow(row...)
		}
		if r.Len() == 0 {
			continue
		}
		for _, algo := range []Algorithm{Sorted, Bucket, Pairwise} {
			got, _ := Check(r, fds, Strong, algo)
			want, err := eval.StrongSatisfied(fds, r)
			if err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
			if got != want {
				t.Fatalf("trial %d algo %v: TEST-FDs=%v semantics=%v\nF = %s\n%s",
					trial, algo, got, want, fd.FormatSet(s, fds), r)
			}
		}
	}
}

func TestWeakAgainstChaseAndSemantics_Random(t *testing.T) {
	// Theorems 3+4, mechanized: chase to the minimally incomplete
	// instance, then the weak-convention TEST-FDs must agree with (a) the
	// chase's nothing-freeness and (b) the domain-aware brute force, under
	// the paper's large-domain assumption.
	rng := rand.New(rand.NewSource(97))
	dom := schema.IntDomain("d", "v", 12)
	s := schema.Uniform("R", []string{"A", "B", "C"}, dom)
	fdPool := [][]fd.FD{
		fd.MustParseSet(s, "A -> B"),
		fd.MustParseSet(s, "A -> B; B -> C"),
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
				if rng.Intn(4) == 0 && nulls < 4 {
					nulls++
					row[j] = "-"
				} else {
					row[j] = dom.Values[rng.Intn(3)]
				}
			}
			_ = r.InsertRow(row...)
		}
		if r.Len() == 0 {
			continue
		}
		res, err := chase.Run(r, fds, chase.Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, algo := range []Algorithm{Sorted, Bucket, Pairwise} {
			got, _ := Check(res.Relation, fds, Weak, algo)
			if got != res.Consistent {
				t.Fatalf("trial %d algo %v: TEST-FDs=%v chase.Consistent=%v\nF = %s\nchased:\n%s",
					trial, algo, got, res.Consistent, fd.FormatSet(s, fds), res.Relation)
			}
		}
		want, err := eval.WeakSatisfied(fds, r)
		if err != nil {
			t.Fatal(err)
		}
		got, _ := Check(res.Relation, fds, Weak, Sorted)
		if got != want {
			t.Fatalf("trial %d: TEST-FDs(min-incomplete)=%v brute force=%v\nF = %s\n%s",
				trial, got, want, fd.FormatSet(s, fds), r)
		}
	}
}

func TestAlgorithmsAgree_Random(t *testing.T) {
	rng := rand.New(rand.NewSource(555))
	dom := schema.IntDomain("d", "v", 5)
	s := schema.Uniform("R", []string{"A", "B", "C", "D"}, dom)
	for trial := 0; trial < 300; trial++ {
		var fds []fd.FD
		for i := 0; i < 1+rng.Intn(3); i++ {
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
		for i := 0; i < 1+rng.Intn(8); i++ {
			row := make([]string, 4)
			for j := range row {
				switch rng.Intn(5) {
				case 0:
					row[j] = "-"
				case 1:
					row[j] = "-2" + string(rune('0'+j)) // column-local class
				default:
					row[j] = dom.Values[rng.Intn(dom.Size())]
				}
			}
			_ = r.InsertRow(row...)
		}
		if r.Len() == 0 {
			continue
		}
		for _, conv := range []Convention{Strong, Weak} {
			a, _ := Check(r, fds, conv, Sorted)
			b, _ := Check(r, fds, conv, Bucket)
			c, _ := Check(r, fds, conv, Pairwise)
			if a != b || b != c {
				t.Fatalf("trial %d conv %v: sorted=%v bucket=%v pairwise=%v\n%s",
					trial, conv, a, b, c, r)
			}
		}
	}
}

// TestWeakNullDoesNotShieldConflict is the regression for a sorted-scan
// bug: the group scan compared every member's Y against the group's
// *first* tuple only. That is sound under the strong convention
// (not-unequal-to-first is transitive) but not under the weak one — a
// null Y-cell is neither equal nor unequal to a constant, so a null
// landing first in the sort order shielded two conflicting constants
// behind it, and Sorted disagreed with Pairwise.
func TestWeakNullDoesNotShieldConflict(t *testing.T) {
	dom := schema.IntDomain("d", "v", 3)
	s := schema.Uniform("R", []string{"A", "B", "C", "D"}, dom)
	f := fd.MustParse(s, "A,B -> D")
	// The (v1, v2) group on A,B holds D-values {v2, v1, ⊥2}: rows 4 and 6
	// definitely conflict whatever position the null takes in the sort.
	r := relation.MustFromRows(s,
		[]string{"v1", "-2", "-1", "v2"},
		[]string{"-3", "v2", "v1", "v2"},
		[]string{"v2", "v2", "v2", "-1"},
		[]string{"v2", "-4", "v1", "v1"},
		[]string{"v1", "v2", "v1", "v2"},
		[]string{"v1", "-1", "v2", "v2"},
		[]string{"v1", "v2", "v1", "v1"},
		[]string{"-2", "v1", "-5", "v2"},
		[]string{"v1", "-6", "v1", "v2"},
		[]string{"v2", "v1", "v1", "-7"},
		[]string{"v1", "-8", "v1", "-9"},
		[]string{"v1", "v2", "-10", "-2"},
		[]string{"-11", "-12", "v2", "v1"},
		[]string{"-13", "v1", "-14", "-15"},
		[]string{"-2", "v2", "v2", "v1"})
	for _, algo := range []Algorithm{Sorted, Bucket, Pairwise} {
		ok, viol := Check(r, []fd.FD{f}, Weak, algo)
		if ok || viol == nil {
			t.Fatalf("%v: violation of A,B -> D must be found", algo)
		}
		t1, t2 := r.Tuple(viol.T1), r.Tuple(viol.T2)
		if !eqOn(Weak, t1, t2, viol.FD.X.Attrs()) || !neqOn(Weak, t1, t2, viol.FD.Y.Attrs()) {
			t.Fatalf("%v: witness (%d,%d) does not violate", algo, viol.T1, viol.T2)
		}
	}
	// The presorted path had the same flaw, and there the adversarial
	// order is under the caller's control: the null-D tuple leads its
	// group.
	s2 := schema.Uniform("R", []string{"A", "B"}, dom)
	r2 := relation.MustFromRows(s2,
		[]string{"v1", "-1"},
		[]string{"v1", "v1"},
		[]string{"v1", "v2"})
	if ok, _ := CheckPresorted(r2, fd.MustParse(s2, "A -> B"), Weak); ok {
		t.Fatal("presorted weak scan must see the conflict behind the leading null")
	}
}

func TestCheckPresorted(t *testing.T) {
	s := abcScheme()
	f := fd.MustParse(s, "A -> B")
	// Sorted on A already.
	r := relation.MustFromRows(s,
		[]string{"v1", "v1", "v1"},
		[]string{"v1", "v1", "v2"},
		[]string{"v2", "v3", "v1"})
	if ok, _ := CheckPresorted(r, f, Weak); !ok {
		t.Error("satisfied presorted instance must pass")
	}
	r2 := relation.MustFromRows(s,
		[]string{"v1", "v1", "v1"},
		[]string{"v1", "v2", "v2"},
		[]string{"v2", "v3", "v1"})
	ok, viol := CheckPresorted(r2, f, Weak)
	if ok || viol == nil || viol.T1 != 0 || viol.T2 != 1 {
		t.Errorf("presorted violation: ok=%v viol=%v", ok, viol)
	}
}

func TestPresortedMatchesSortedWhenSorted(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	dom := schema.IntDomain("d", "v", 4)
	s := schema.Uniform("R", []string{"A", "B"}, dom)
	f := fd.MustParse(s, "A -> B")
	for trial := 0; trial < 200; trial++ {
		// Build rows sorted on A by construction.
		r := relation.New(s)
		for _, a := range dom.Values {
			for k := 0; k < rng.Intn(3); k++ {
				b := dom.Values[rng.Intn(dom.Size())]
				_ = r.InsertRow(a, b)
			}
		}
		if r.Len() == 0 {
			continue
		}
		got, _ := CheckPresorted(r, f, Weak)
		want, _ := Check(r, []fd.FD{f}, Weak, Sorted)
		if got != want {
			t.Fatalf("trial %d: presorted=%v sorted=%v\n%s", trial, got, want, r)
		}
	}
}

func TestEmptyAndSingleton(t *testing.T) {
	s := abcScheme()
	fds := fd.MustParseSet(s, "A -> B")
	r := relation.New(s)
	if ok, _ := Check(r, fds, Strong, Sorted); !ok {
		t.Error("empty instance satisfies everything")
	}
	r.MustInsertRow("v1", "-", "-")
	for _, conv := range []Convention{Strong, Weak} {
		for _, algo := range []Algorithm{Sorted, Bucket, Pairwise} {
			if ok, _ := Check(r, fds, conv, algo); !ok {
				t.Errorf("singleton instance must pass (%v/%v)", conv, algo)
			}
		}
	}
}

func TestNothingCellsFailWeak(t *testing.T) {
	// A chased instance with nothing must fail the weak test (it encodes
	// an unavoidable conflict). With equal X and nothing in Y, inequality
	// is positive.
	s := abcScheme()
	fds := fd.MustParseSet(s, "A -> B")
	r := relation.MustFromRows(s,
		[]string{"v1", "!", "v1"},
		[]string{"v1", "!", "v2"})
	if ok, _ := Check(r, fds, Weak, Sorted); ok {
		t.Error("nothing cells under shared X must fail the weak test")
	}
}

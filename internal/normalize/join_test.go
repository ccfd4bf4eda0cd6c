package normalize

import (
	"math/rand"
	"testing"

	"fdnull/internal/fd"
	"fdnull/internal/relation"
	"fdnull/internal/schema"
)

func TestNaturalJoinBasics(t *testing.T) {
	s, fds := employee()
	r := relation.MustFromRows(s,
		[]string{"e1", "s1", "d1", "full"},
		[]string{"e2", "s2", "d1", "full"},
		[]string{"e3", "s1", "d2", "part"})
	comps := []schema.AttrSet{s.MustSet("E#", "SL", "D#"), s.MustSet("D#", "CT")}
	frags, err := ProjectInstance(r, comps)
	if err != nil {
		t.Fatal(err)
	}
	joined, err := NaturalJoin(s, frags, comps)
	if err != nil {
		t.Fatal(err)
	}
	if !relation.Equal(r, joined) {
		t.Errorf("lossless decomposition must reproduce the instance:\n%s\nvs\n%s", r, joined)
	}
	_ = fds
}

func TestNaturalJoinValidation(t *testing.T) {
	s, _ := employee()
	comps := []schema.AttrSet{s.MustSet("E#", "SL", "D#"), s.MustSet("D#", "CT")}
	if _, err := NaturalJoin(s, nil, nil); err == nil {
		t.Error("empty join must error")
	}
	r := relation.MustFromRows(s, []string{"e1", "s1", "d1", "full"})
	frags, _ := ProjectInstance(r, comps)
	if _, err := NaturalJoin(s, frags[:1], comps); err == nil {
		t.Error("length mismatch must error")
	}
	// Fragment with nulls is rejected.
	withNull := relation.MustFromRows(r.Scheme(), []string{"e1", "-", "d1", "full"})
	nf, _ := ProjectInstance(withNull, comps)
	if _, err := NaturalJoin(s, nf, comps); err == nil {
		t.Error("null fragments must be rejected")
	}
	// Components not covering the scheme are rejected.
	partial := []schema.AttrSet{s.MustSet("E#", "SL")}
	pf, _ := ProjectInstance(r, partial)
	if _, err := NaturalJoin(s, pf, partial); err == nil {
		t.Error("uncovered attributes must be reported")
	}
	// Nothing-bearing fragments are as unjoinable as null-bearing ones.
	withNothing := relation.MustFromRows(r.Scheme(), []string{"e1", "s1", "d1", "!"})
	bf, _ := ProjectInstance(withNothing, comps)
	if _, err := NaturalJoin(s, bf, comps); err == nil {
		t.Error("nothing-bearing fragments must be rejected")
	}
	// A fragment over a wider domain than the universal scheme's: the
	// joined row cannot be stored, which is an error, not a dropped row.
	wide := schema.MustNew("F", []string{"D#", "CT"}, []*schema.Domain{
		schema.IntDomain("dept", "d", 12),
		schema.MustDomain("ct", "full", "part", "temp", "casual"),
	})
	r2 := relation.MustFromRows(s,
		[]string{"e1", "s1", "d1", "full"},
		[]string{"e2", "s2", "d2", "part"})
	of, _ := ProjectInstance(r2, comps)
	of[1] = relation.MustFromRows(wide, []string{"d1", "full"}, []string{"d2", "casual"})
	if j, err := NaturalJoin(s, of, comps); err == nil {
		t.Errorf("out-of-domain fragment constant must be reported, got %d-row join", j.Len())
	}
}

// TestNaturalJoinEdgeCases pins the join's set semantics at the
// boundaries: an empty fragment annihilates the join, and dangling
// tuples (no partner on the shared attributes) silently disappear.
func TestNaturalJoinEdgeCases(t *testing.T) {
	s, _ := employee()
	comps := []schema.AttrSet{s.MustSet("E#", "SL", "D#"), s.MustSet("D#", "CT")}
	r := relation.MustFromRows(s,
		[]string{"e1", "s1", "d1", "full"},
		[]string{"e2", "s2", "d2", "part"})
	frags, err := ProjectInstance(r, comps)
	if err != nil {
		t.Fatal(err)
	}

	// Empty fragment: ∅ ⋈ anything = ∅, not an error.
	empty := relation.New(frags[1].Scheme())
	j, err := NaturalJoin(s, []*relation.Relation{frags[0], empty}, comps)
	if err != nil {
		t.Fatal(err)
	}
	if j.Len() != 0 {
		t.Errorf("join with an empty fragment must be empty, got\n%s", j)
	}

	// Dangling tuples: a department with no employees contributes nothing.
	dangling := relation.MustFromRows(frags[1].Scheme(),
		[]string{"d1", "full"},
		[]string{"d9", "temp"})
	j, err = NaturalJoin(s, []*relation.Relation{frags[0], dangling}, comps)
	if err != nil {
		t.Fatal(err)
	}
	want := relation.MustFromRows(s, []string{"e1", "s1", "d1", "full"})
	if !relation.Equal(j, want) {
		t.Errorf("dangling tuples must drop out:\n%s\nwant:\n%s", j, want)
	}
}

// TestLosslessAgreesWithInstances ties the tableau-chase criterion to its
// instance-level meaning: for decompositions declared lossless, project ∘
// join is the identity on every satisfying complete instance; for
// decompositions declared lossy, some satisfying instance gains spurious
// tuples.
func TestLosslessAgreesWithInstances(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	dom := schema.IntDomain("d", "v", 3)
	s := schema.Uniform("R", []string{"A", "B", "C"}, dom)
	cases := []struct {
		fds   []fd.FD
		comps []schema.AttrSet
	}{
		{fd.MustParseSet(s, "A -> B"), []schema.AttrSet{s.MustSet("A", "B"), s.MustSet("A", "C")}},
		{fd.MustParseSet(s, "A -> B"), []schema.AttrSet{s.MustSet("A", "B"), s.MustSet("B", "C")}},
		{fd.MustParseSet(s, "B -> C"), []schema.AttrSet{s.MustSet("A", "B"), s.MustSet("B", "C")}},
		{nil, []schema.AttrSet{s.MustSet("A", "B"), s.MustSet("B", "C")}},
	}
	for ci, cse := range cases {
		declared, err := Lossless(s.All(), cse.comps, cse.fds)
		if err != nil {
			t.Fatal(err)
		}
		foundSpurious := false
		for trial := 0; trial < 400; trial++ {
			// Random complete instance satisfying the FDs (rejection
			// sampling).
			r := relation.New(s)
			n := 1 + rng.Intn(4)
			for i := 0; i < n; i++ {
				_ = r.InsertRow(
					dom.Values[rng.Intn(3)],
					dom.Values[rng.Intn(3)],
					dom.Values[rng.Intn(3)])
			}
			if r.Len() == 0 {
				continue
			}
			satisfies := true
			for _, f := range cse.fds {
				ts := r.Tuples()
				for i := range ts {
					for j := i + 1; j < len(ts); j++ {
						if ts[i].ConstEqOn(ts[j], f.X) && !ts[i].ConstEqOn(ts[j], f.Y) {
							satisfies = false
						}
					}
				}
			}
			if !satisfies {
				continue
			}
			frags, err := ProjectInstance(r, cse.comps)
			if err != nil {
				t.Fatal(err)
			}
			joined, err := NaturalJoin(s, frags, cse.comps)
			if err != nil {
				t.Fatal(err)
			}
			if declared {
				if !relation.Equal(r, joined) {
					t.Fatalf("case %d: declared lossless but join differs on\n%s\njoined:\n%s",
						ci, r, joined)
				}
			} else if joined.Len() > r.Len() {
				foundSpurious = true
				break
			}
		}
		if !declared && !foundSpurious {
			t.Errorf("case %d: declared lossy but no spurious-tuple instance found", ci)
		}
	}
}

package fdnull_test

import (
	"strings"
	"testing"

	fdnull "fdnull"
)

// TestQuickstart exercises the README's quick-start path end to end
// through the public API only.
func TestQuickstart(t *testing.T) {
	dom := fdnull.IntDomain("vals", "v", 10)
	s := fdnull.UniformScheme("R", []string{"A", "B", "C"}, dom)
	r := fdnull.MustFromRows(s,
		[]string{"v1", "v2", "-"},
		[]string{"v1", "-", "v3"},
	)
	fds := fdnull.MustParseFDs(s, "A -> B; B -> C")

	ok, res, err := fdnull.WeaklySatisfiable(r, fds)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatalf("instance should be weakly satisfiable:\n%s", res.Relation)
	}
	// The chase must have bound tuple 2's B to v2 (A → B).
	b := s.MustAttr("B")
	got := res.Relation.Tuple(1)[b]
	if !got.IsConst() || got.Const() != "v2" {
		t.Errorf("chased B = %v, want v2", got)
	}

	strong, err := fdnull.StrongSatisfied(fds, r)
	if err != nil {
		t.Fatal(err)
	}
	if strong {
		t.Error("instance with nulls under shared A must not be strong")
	}
}

func TestPublicEvaluationAndCases(t *testing.T) {
	dom2, err := fdnull.NewDomain("two", "a1", "a2")
	if err != nil {
		t.Fatal(err)
	}
	s, err := fdnull.NewScheme("R", []string{"A", "B", "C"},
		[]*fdnull.Domain{dom2, fdnull.IntDomain("b", "b", 3), fdnull.IntDomain("c", "c", 3)})
	if err != nil {
		t.Fatal(err)
	}
	f := fdnull.MustParseFD(s, "A,B -> C")
	r := fdnull.MustFromRows(s,
		[]string{"-", "b1", "c1"},
		[]string{"a1", "b1", "c2"},
		[]string{"a2", "b1", "c3"})
	v, err := fdnull.Evaluate(f, r, 0)
	if err != nil {
		t.Fatal(err)
	}
	if v.Truth != fdnull.False || v.Case != fdnull.CaseF2 {
		t.Errorf("Figure 2 r4 through the facade: %v", v)
	}
	ground, err := fdnull.EvaluateByDefinition(f, r, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ground != fdnull.False {
		t.Errorf("definition disagrees: %v", ground)
	}
	rep, err := fdnull.Report([]fdnull.FD{f}, r)
	if err != nil || len(rep) != 1 || len(rep[0]) != 3 {
		t.Errorf("Report shape: %v %v", rep, err)
	}
}

func TestPublicFDTheory(t *testing.T) {
	s := fdnull.UniformScheme("R", []string{"A", "B", "C", "D"},
		fdnull.IntDomain("d", "v", 4))
	fds := fdnull.MustParseFDs(s, "A -> B; B -> C; C -> D")
	if fdnull.Closure(s.MustSet("A"), fds) != s.All() {
		t.Error("closure through the facade")
	}
	if !fdnull.Implies(fds, fdnull.MustParseFD(s, "A -> D")) {
		t.Error("implication through the facade")
	}
	if len(fdnull.MinimalCover(fds)) != 3 {
		t.Error("minimal cover through the facade")
	}
	keys := fdnull.CandidateKeys(s.All(), fds)
	if len(keys) != 1 || keys[0] != s.MustSet("A") {
		t.Errorf("keys = %v", keys)
	}
	d, ok := fdnull.Derive(fds, fdnull.MustParseFD(s, "A -> C"))
	if !ok || d.Verify() != nil {
		t.Error("derivation through the facade")
	}
}

func TestPublicTestFDs(t *testing.T) {
	s := fdnull.UniformScheme("R", []string{"A", "B"}, fdnull.IntDomain("d", "v", 6))
	fds := fdnull.MustParseFDs(s, "A -> B")
	r := fdnull.MustFromRows(s,
		[]string{"v1", "-"},
		[]string{"v1", "v2"})
	if ok, _ := fdnull.TestStrong(r, fds); ok {
		t.Error("strong test should fail (null may be substituted apart)")
	}
	if ok, _ := fdnull.TestWeak(r, fds); !ok {
		t.Error("weak test should pass before the chase")
	}
	for _, algo := range []fdnull.Algorithm{fdnull.SortedScan, fdnull.BucketScan, fdnull.PairwiseScan} {
		okS, _ := fdnull.TestFDs(r, fds, fdnull.StrongConvention, algo)
		okW, _ := fdnull.TestFDs(r, fds, fdnull.WeakConvention, algo)
		if okS || !okW {
			t.Errorf("algo %v: strong=%v weak=%v", algo, okS, okW)
		}
	}
}

func TestPublicChaseModes(t *testing.T) {
	s := fdnull.UniformScheme("R", []string{"A", "B"}, fdnull.IntDomain("d", "v", 6))
	fds := fdnull.MustParseFDs(s, "A -> B")
	r := fdnull.MustFromRows(s,
		[]string{"v1", "-"},
		[]string{"v1", "v2"})
	res, err := fdnull.Chase(r, fds, fdnull.ChaseOptions{Mode: fdnull.Plain})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Relation.Tuple(0)[1]; !got.IsConst() || got.Const() != "v2" {
		t.Errorf("plain chase substitution: %v", got)
	}
	mi, err := fdnull.MinimallyIncomplete(res.Relation, fds)
	if err != nil || !mi {
		t.Errorf("chase output must be minimally incomplete: %v %v", mi, err)
	}
}

func TestPublicSystemC(t *testing.T) {
	s := fdnull.UniformScheme("R", []string{"A", "B", "C"}, fdnull.IntDomain("d", "v", 3))
	fds := fdnull.MustParseFDs(s, "A -> B; B -> C")
	var ims []fdnull.Impl
	for _, f := range fds {
		ims = append(ims, fdnull.ImplFromFD(s, f))
	}
	goal := fdnull.ImplFromFD(s, fdnull.MustParseFD(s, "A -> C"))
	if !fdnull.Infers(ims, goal) {
		t.Error("System C inference through the facade")
	}
	if fdnull.WeakInfers(ims, goal) {
		t.Error("weak inference must reject transitivity (Section 6)")
	}
}

func TestPublicNormalization(t *testing.T) {
	s, err := fdnull.NewScheme("R",
		[]string{"E", "S", "D", "C"},
		[]*fdnull.Domain{
			fdnull.IntDomain("e", "e", 8), fdnull.IntDomain("s", "s", 8),
			fdnull.IntDomain("d", "d", 8), fdnull.IntDomain("c", "c", 3),
		})
	if err != nil {
		t.Fatal(err)
	}
	fds := fdnull.MustParseFDs(s, "E -> S,D; D -> C")
	if ok, _ := fdnull.IsBCNF(s.All(), fds); ok {
		t.Error("scheme should violate BCNF")
	}
	comps := fdnull.BCNFDecompose(s.All(), fds)
	lossless, err := fdnull.Lossless(s.All(), comps, fds)
	if err != nil || !lossless {
		t.Errorf("BCNF decomposition lossless: %v %v", lossless, err)
	}
	comps3 := fdnull.ThreeNFSynthesize(s.All(), fds)
	if !fdnull.DependencyPreserving(fds, comps3) {
		t.Error("3NF synthesis must preserve dependencies")
	}
	// Null-padded reassembly round trip.
	r := fdnull.MustFromRows(s,
		[]string{"e1", "s1", "d1", "c1"},
		[]string{"e2", "s2", "d1", "c1"})
	frags, err := fdnull.ProjectInstance(r, comps3)
	if err != nil {
		t.Fatal(err)
	}
	u, err := fdnull.PadToUniversal(s, frags, comps3)
	if err != nil {
		t.Fatal(err)
	}
	ok, _, err := fdnull.WeaklySatisfiable(u, fds)
	if err != nil || !ok {
		t.Errorf("padded universal instance: %v %v", ok, err)
	}
}

func TestPublicWrapperCoverage(t *testing.T) {
	// Exercise the thin wrappers not touched by the scenario tests.
	s := fdnull.UniformScheme("R", []string{"A", "B", "C"}, fdnull.IntDomain("d", "v", 6))
	r := fdnull.NewRelation(s)
	if err := r.InsertRow("v1", "v2", "-"); err != nil {
		t.Fatal(err)
	}
	r2, err := fdnull.FromRows(s, []string{"v1", "v2", "v3"})
	if err != nil || r2.Len() != 1 {
		t.Fatal("FromRows wrapper")
	}
	f, err := fdnull.ParseFD(s, "A -> B")
	if err != nil {
		t.Fatal(err)
	}
	if !fdnull.NewFD(s.MustSet("A"), s.MustSet("B")).Equal(f) {
		t.Error("NewFD wrapper")
	}
	fds, err := fdnull.ParseFDs(s, "A -> B; B -> C")
	if err != nil || len(fds) != 2 {
		t.Fatal("ParseFDs wrapper")
	}
	if fdnull.FormatFDs(s, fds) != "A -> B; B -> C" {
		t.Error("FormatFDs wrapper")
	}
	ok, err := fdnull.StrongHolds(f, r)
	if err != nil || !ok {
		t.Error("StrongHolds wrapper")
	}
	ok, err = fdnull.WeakHolds(fds[1], r)
	if err != nil || !ok {
		t.Error("WeakHolds wrapper")
	}
	ok, err = fdnull.WeakSatisfiedByDefinition(fds, r)
	if err != nil || !ok {
		t.Error("WeakSatisfiedByDefinition wrapper")
	}
	ok3, viol := fdnull.Is3NF(s.All(), fds)
	if !ok3 || viol != nil {
		// A->B with A key-ish: check just that the call works; the
		// scheme has key A (A->B->C), so it IS 3NF? A+ = ABC: A is a
		// key; B->C has non-superkey LHS and C non-prime => not 3NF.
		t.Log("Is3NF verdict:", ok3, viol)
	}
	// NaturalJoin through the facade.
	comps := []fdnull.AttrSet{s.MustSet("A", "B"), s.MustSet("B", "C")}
	u := fdnull.MustFromRows(s, []string{"v1", "v2", "v3"})
	frags, err := fdnull.ProjectInstance(u, comps)
	if err != nil {
		t.Fatal(err)
	}
	j, err := fdnull.NaturalJoin(s, frags, comps)
	if err != nil || j.Len() != 1 {
		t.Errorf("NaturalJoin wrapper: %v %v", j, err)
	}
}

func TestPublicSystemCEval(t *testing.T) {
	// EvalC and CTautology wrappers with a genuine modal formula.
	p := fdnull.Impl{X: []string{"A"}, Y: []string{"B"}}.Wff()
	a := fdnull.Assignment{"A": fdnull.True, "B": fdnull.Unknown}
	if got := fdnull.EvalC(p, a); got != fdnull.Unknown {
		t.Errorf("EvalC = %v", got)
	}
	taut := fdnull.Impl{X: []string{"A", "B"}, Y: []string{"A"}}.Wff()
	if !fdnull.CTautology(taut) {
		t.Error("trivial implication is a C-tautology")
	}
	if fdnull.CTautology(p) {
		t.Error("A => B is not a C-tautology")
	}
}

func TestPublicFileIO(t *testing.T) {
	in := `
domain d = v1 v2
scheme R(A:d, B:d)
fd A -> B
row v1 v2
row v2 -
`
	f, err := fdnull.ParseFile(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if f.Relation.Len() != 2 || len(f.FDs) != 1 {
		t.Error("parse through the facade")
	}
	var b strings.Builder
	if err := fdnull.WriteFile(&b, f); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "fd A -> B") {
		t.Errorf("write through the facade:\n%s", b.String())
	}
}

func TestPublicValuesAndCompletions(t *testing.T) {
	s := fdnull.UniformScheme("R", []string{"A", "B"}, fdnull.IntDomain("d", "v", 3))
	tup := fdnull.Tuple{fdnull.Const("v1"), fdnull.NullValue(1)}
	cs, err := fdnull.Completions(s, tup, s.All())
	if err != nil || len(cs) != 3 {
		t.Errorf("completions = %d, %v", len(cs), err)
	}
	if fdnull.Nothing().String() != "!" {
		t.Error("nothing rendering")
	}
	if !fdnull.Const("x").IsConst() {
		t.Error("const predicate")
	}
	if fdnull.True.String() != "true" || fdnull.Unknown.String() != "unknown" || fdnull.False.String() != "false" {
		t.Error("truth value rendering")
	}
	// The tableau-level lossless test through the facade.
	ok, err := fdnull.TableauLossless(2, []fdnull.AttrSet{s.All()}, nil)
	if err != nil || !ok {
		t.Error("tableau lossless identity")
	}
}

package query

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"fdnull/internal/chase"
	"fdnull/internal/fd"
	"fdnull/internal/normalize"
	"fdnull/internal/relation"
	"fdnull/internal/schema"
)

// empScheme is the paper's employee example with its BCNF decomposition
// components — lossless under the FDs.
func empScheme() (*schema.Scheme, []fd.FD, []schema.AttrSet) {
	s := schema.MustNew("R",
		[]string{"E#", "SL", "D#", "CT"},
		[]*schema.Domain{
			schema.IntDomain("emp", "e", 12),
			schema.IntDomain("sal", "s", 12),
			schema.IntDomain("dept", "d", 12),
			schema.MustDomain("ct", "full", "part", "temp"),
		})
	fds := fd.MustParseSet(s, "E# -> SL,D#; D# -> CT")
	comps := []schema.AttrSet{s.MustSet("E#", "SL", "D#"), s.MustSet("D#", "CT")}
	return s, fds, comps
}

func TestSelectJoinedValidation(t *testing.T) {
	s, fds, comps := empScheme()
	r := relation.MustFromRows(s, []string{"e1", "s1", "d1", "full"})
	frags, err := normalize.ProjectInstance(r, comps)
	if err != nil {
		t.Fatal(err)
	}
	p := Eq{Attr: 0, Const: "e1"}
	if _, err := SelectJoined(s, fds, nil, nil, p, Options{}); err == nil {
		t.Error("empty fragment list must error")
	}
	if _, err := SelectJoined(s, fds, frags, comps[:1], p, Options{}); err == nil {
		t.Error("fragment/component count mismatch must error")
	}
	if _, err := SelectJoined(s, fds, []*relation.Relation{frags[0], frags[0]}, comps, p, Options{}); err == nil {
		t.Error("arity/component mismatch must error")
	}
	partial := []schema.AttrSet{s.MustSet("E#", "SL", "D#")}
	if _, err := SelectJoined(s, fds, frags[:1], partial, p, Options{}); err == nil {
		t.Error("uncovered attribute must error")
	}
	// (E#, SL) + (D#, CT) loses the E#–D# association: lossy.
	lossy := []schema.AttrSet{s.MustSet("E#", "SL"), s.MustSet("D#", "CT")}
	lf, err := normalize.ProjectInstance(r, lossy)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := SelectJoined(s, fds, lf, lossy, p, Options{}); err == nil {
		t.Error("lossy decomposition must be refused")
	}
}

func TestSelectJoinedEdgeCases(t *testing.T) {
	s, fds, comps := empScheme()
	p := Eq{Attr: 0, Const: "e1"}

	// An empty fragment empties the join: no answers, no error.
	r := relation.MustFromRows(s, []string{"e1", "s1", "d1", "full"})
	frags, err := normalize.ProjectInstance(r, comps)
	if err != nil {
		t.Fatal(err)
	}
	empty := relation.New(frags[1].Scheme())
	j, err := SelectJoined(s, fds, []*relation.Relation{frags[0], empty}, comps, p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if j.Rel.Len() != 0 || len(j.Res.Sure) != 0 || len(j.Res.Maybe) != 0 {
		t.Errorf("empty fragment must empty the join, got %d rows", j.Rel.Len())
	}

	// All-null join column: the shared attribute D# is unknown in every
	// row of one fragment — the null-aware route must pad and chase, and
	// with distinct unknown departments nothing joins for certain.
	rn := relation.MustFromRows(s,
		[]string{"e1", "s1", "-", "full"},
		[]string{"e2", "s2", "-", "part"})
	nf, err := normalize.ProjectInstance(rn, comps)
	if err != nil {
		t.Fatal(err)
	}
	jn, err := SelectJoined(s, fds, nf, comps, In{Attr: 3, Values: []string{"full", "part", "temp"}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !jn.Chased {
		t.Error("null-bearing fragments must take the chased route")
	}
	if len(jn.Res.Sure) != jn.Rel.Len() {
		t.Errorf("CT covers its domain: every padded tuple is a certain answer, got %d of %d",
			len(jn.Res.Sure), jn.Rel.Len())
	}

	// A nothing-bearing fragment tuple can never join consistently.
	rb := relation.MustFromRows(s, []string{"e1", "s1", "d1", "!"})
	bf, err := normalize.ProjectInstance(rb, comps)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := SelectJoined(s, fds, bf, comps, p, Options{}); err == nil {
		t.Error("nothing-bearing fragments must be rejected by the chase")
	}
}

// randEmpPred builds a random predicate over the employee scheme with
// ∧/∨/¬ structure up to the given depth.
func randEmpPred(rng *rand.Rand, s *schema.Scheme, depth int) Pred {
	if depth <= 0 || rng.Intn(3) == 0 {
		a := schema.Attr(rng.Intn(s.Arity()))
		d := s.Domain(a)
		switch rng.Intn(4) {
		case 0:
			return Eq{Attr: a, Const: d.Values[rng.Intn(d.Size())]}
		case 1:
			n := 1 + rng.Intn(3)
			vals := make([]string, n)
			for i := range vals {
				vals[i] = d.Values[rng.Intn(d.Size())]
			}
			return In{Attr: a, Values: vals}
		case 2:
			return EqAttr{A: 0, B: schema.Attr(rng.Intn(s.Arity()))}
		default:
			return Not{P: Eq{Attr: a, Const: d.Values[rng.Intn(d.Size())]}}
		}
	}
	p, q := randEmpPred(rng, s, depth-1), randEmpPred(rng, s, depth-1)
	if rng.Intn(2) == 0 {
		return And{P: p, Q: q}
	}
	return Or{P: p, Q: q}
}

// answerSets renders a Result's Sure and Maybe partitions as sorted
// tuple strings over r — the content-level comparison: the join may
// order (and first-occurrence-dedupe) tuples differently than the
// original instance, so answer identity is by tuple value, not index.
func answerSets(r *relation.Relation, res Result) (sure, maybe []string) {
	for _, i := range res.Sure {
		sure = append(sure, r.Tuple(i).String())
	}
	for _, i := range res.Maybe {
		maybe = append(maybe, r.Tuple(i).String())
	}
	sort.Strings(sure)
	sort.Strings(maybe)
	return sure, maybe
}

func eqStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestSelectJoinedNullFreeMatchesOriginal_Random: for complete instances
// that satisfy the FDs, decompose → query-via-join answers exactly like
// the query on the original instance (content-wise — the recombined
// instance is the original, Theorem on lossless joins).
func TestSelectJoinedNullFreeMatchesOriginal_Random(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	s, fds, comps := empScheme()
	cts := []string{"full", "part", "temp"}
	for trial := 0; trial < 60; trial++ {
		// FD-respecting generator: SL and D# are functions of E#, CT of D#.
		r := relation.New(s)
		slOf, dOf := map[int]int{}, map[int]int{}
		ctOf := map[int]string{}
		n := 1 + rng.Intn(8)
		for i := 0; i < n; i++ {
			e := rng.Intn(12)
			if _, ok := slOf[e]; !ok {
				slOf[e], dOf[e] = rng.Intn(12), rng.Intn(12)
			}
			d := dOf[e]
			if _, ok := ctOf[d]; !ok {
				ctOf[d] = cts[rng.Intn(3)]
			}
			_ = r.InsertRow(fmt.Sprintf("e%d", e+1), fmt.Sprintf("s%d", slOf[e]+1),
				fmt.Sprintf("d%d", d+1), ctOf[d])
		}
		if r.Len() == 0 {
			continue
		}
		frags, err := normalize.ProjectInstance(r, comps)
		if err != nil {
			t.Fatal(err)
		}
		for _, engine := range []Engine{EngineIndexed, EngineNaive} {
			p := randEmpPred(rng, s, 2)
			j, err := SelectJoined(s, fds, frags, comps, p, Options{Engine: engine})
			if err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
			if j.Chased {
				t.Fatalf("trial %d: null-free fragments took the chased route", trial)
			}
			want := Select(r, p)
			ws, wm := answerSets(r, want)
			gs, gm := answerSets(j.Rel, j.Res)
			if !eqStrings(ws, gs) || !eqStrings(wm, gm) {
				t.Fatalf("trial %d (%s, %s): joined answers diverge\n sure %v vs %v\n maybe %v vs %v\noriginal:\n%s\njoined:\n%s",
					trial, engine, p, gs, ws, gm, wm, r, j.Rel)
			}
		}
	}
}

// TestSelectJoinedNullRouteMatchesNaiveStack_Random: for null-bearing
// fragments the operator must agree with the hand-assembled oracle
// pipeline — PadToUniversal, naive extended chase, naive scan.
func TestSelectJoinedNullRouteMatchesNaiveStack_Random(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	s, fds, comps := empScheme()
	cells := func(a schema.Attr) string {
		if rng.Intn(4) == 0 {
			return "-"
		}
		d := s.Domain(a)
		return d.Values[rng.Intn(d.Size())]
	}
	for trial := 0; trial < 60; trial++ {
		r := relation.New(s)
		n := 1 + rng.Intn(6)
		for i := 0; i < n; i++ {
			row := make([]string, s.Arity())
			for a := range row {
				row[a] = cells(schema.Attr(a))
			}
			_ = r.InsertRow(row...)
		}
		if r.Len() == 0 || (!r.HasNulls() && !r.HasNothing()) {
			continue
		}
		frags, err := normalize.ProjectInstance(r, comps)
		if err != nil {
			t.Fatal(err)
		}
		p := randEmpPred(rng, s, 2)
		j, err := SelectJoined(s, fds, frags, comps, p, Options{Engine: EngineIndexed})
		padded, perr := normalize.PadToUniversal(s, frags, comps)
		if perr != nil {
			t.Fatal(perr)
		}
		res, cerr := chase.RunPairwise(padded, fds, chase.Options{Mode: chase.Extended})
		if cerr != nil {
			t.Fatal(cerr)
		}
		if !res.Consistent {
			if err == nil {
				t.Fatalf("trial %d: oracle rejects but the operator accepted", trial)
			}
			continue
		}
		if err != nil {
			t.Fatalf("trial %d: oracle accepts but the operator errored: %v", trial, err)
		}
		if !j.Chased {
			t.Fatalf("trial %d: null-bearing fragments skipped the chase", trial)
		}
		if !relation.Equal(j.Rel, res.Relation) {
			t.Fatalf("trial %d: recombined instances diverge\noperator:\n%s\noracle:\n%s",
				trial, j.Rel, res.Relation)
		}
		if want := Select(res.Relation, p); !j.Res.Equal(want) {
			t.Fatalf("trial %d (%s): answers diverge: %v vs %v", trial, p, j.Res, want)
		}
	}
}

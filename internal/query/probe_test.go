package query

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"fdnull/internal/relation"
	"fdnull/internal/schema"
	"fdnull/internal/tvl"
	"fdnull/internal/value"
)

// nullVsConst decides null = c over the null's feasible values.
func nullVsConst(vals []string, c string) tvl.T {
	switch {
	case !slices.Contains(vals, c):
		return tvl.False
	case len(vals) == 1:
		return tvl.True
	}
	return tvl.Unknown
}

// feasibleEval is the atoms' answer decided over feasibleValues alone —
// what Eq, In and EqAttr computed before an unnarrowed null was decided by
// a probe of its domain. It is the reference the probe must agree with.
func feasibleEval(s *schema.Scheme, t relation.Tuple, p Pred) tvl.T {
	if contradictory(s, t) {
		return tvl.False
	}
	feasible := func(a schema.Attr) []string {
		vals, _ := feasibleValues(s, t, a)
		return vals
	}
	switch q := p.(type) {
	case Eq:
		if v := t[q.Attr]; v.IsConst() {
			return tvl.FromBool(v.Const() == q.Const)
		}
		return nullVsConst(feasible(q.Attr), q.Const)
	case In:
		if v := t[q.Attr]; v.IsConst() {
			return tvl.FromBool(slices.Contains(q.Values, v.Const()))
		}
		all, none := true, true
		for _, c := range feasible(q.Attr) {
			if slices.Contains(q.Values, c) {
				none = false
			} else {
				all = false
			}
		}
		switch {
		case all:
			return tvl.True
		case none:
			return tvl.False
		}
		return tvl.Unknown
	case EqAttr:
		a, b := t[q.A], t[q.B]
		switch {
		case a.IsNull() && b.IsConst():
			return nullVsConst(feasible(q.A), b.Const())
		case b.IsNull() && a.IsConst():
			return nullVsConst(feasible(q.B), a.Const())
		}
		return q.eval(s, t)
	}
	panic("feasibleEval: not an atom")
}

// TestDomainProbeAgreesWithFeasibleValues: on random tuples whose marks
// are shared within one domain (unnarrowed: the probe decides) and across
// overlapping, disjoint and singleton domains (narrowed: feasibleValues
// decides), Eq, In and EqAttr answer exactly what feasibleValues alone
// answers, over domains above and below Domain.Contains' map threshold.
func TestDomainProbeAgreesWithFeasibleValues(t *testing.T) {
	span := func(name string, lo, hi int) *schema.Domain {
		var vs []string
		for i := lo; i <= hi; i++ {
			vs = append(vs, fmt.Sprintf("v%d", i))
		}
		return schema.MustDomain(name, vs...)
	}
	wide := span("wide", 1, 20) // A and C share it: one mark there is not narrowed
	s := schema.MustNew("R", []string{"A", "B", "C", "D", "E"}, []*schema.Domain{
		wide, span("mid", 15, 24), wide, span("pair", 1, 2), span("one", 2, 2),
	})
	var consts []string
	for i := 0; i <= 25; i++ {
		consts = append(consts, fmt.Sprintf("v%d", i)) // v0 and v25 lie in no domain
	}
	rng := rand.New(rand.NewSource(7))
	pick := func() string { return consts[rng.Intn(len(consts))] }
	for trial := 0; trial < 3000; trial++ {
		tup := make(relation.Tuple, s.Arity())
		for a := range tup {
			if rng.Intn(2) == 0 {
				tup[a] = value.NewNull(1 + rng.Intn(3))
			} else {
				dom := s.Domain(schema.Attr(a))
				tup[a] = value.NewConst(dom.Values[rng.Intn(dom.Size())])
			}
		}
		a, b := schema.Attr(rng.Intn(s.Arity())), schema.Attr(rng.Intn(s.Arity()))
		in := make([]string, rng.Intn(5))
		for k := range in {
			in[k] = pick()
		}
		if len(in) > 1 && rng.Intn(3) == 0 {
			in[0] = in[1] // listed twice
		}
		for _, p := range []Pred{Eq{a, pick()}, In{a, in}, In{a, wide.Values}, EqAttr{a, b}} {
			got, want := EvalTuple(s, tup, p), feasibleEval(s, tup, p)
			if got != want {
				t.Fatalf("%s on %s = %v, feasibleValues decide %v", p, tup, got, want)
			}
		}
	}
}

// TestEqOnNullAllocs: deciding attr = c (and attr ∈ S) on an unnarrowed
// null over a domain Domain.Contains serves from its map allocates
// nothing.
func TestEqOnNullAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	s := schema.MustNew("R", []string{"K", "A"}, []*schema.Domain{
		schema.IntDomain("k", "k", 4), schema.IntDomain("a", "v", 64),
	})
	tup := relation.Tuple{value.NewConst("k1"), value.NewNull(1)}
	for _, p := range []Pred{Eq{Attr: 1, Const: "v7"}, Eq{Attr: 1, Const: "zz"}, In{Attr: 1, Values: []string{"v1", "v9"}}} {
		if n := testing.AllocsPerRun(100, func() { _ = EvalTuple(s, tup, p) }); n != 0 {
			t.Errorf("%s on a null over a 64-value domain allocates %v, want 0", p, n)
		}
	}
}

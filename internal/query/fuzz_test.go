package query

import (
	"testing"

	"fdnull/internal/relation"
	"fdnull/internal/schema"
	"fdnull/internal/tvl"
	"fdnull/internal/value"
)

// FuzzParsePred drives the predicate parser with arbitrary input
// (mirroring relio's FuzzParse): it must never panic, and every accepted
// predicate must render and evaluate three-valuedly without panicking on
// constant, null, and nothing cells alike. Run with `go test -fuzz
// FuzzParsePred ./internal/query` to explore; the seed corpus below runs
// on every plain `go test` (the CI fuzz smoke).
func FuzzParsePred(f *testing.F) {
	for _, seed := range []string{
		"MS = married",
		"MS in (married, single) and not D# = d2",
		"A = B or (not B = x) and C in (y)",
		"not not not A = x",
		"((((A = x))))",
		"A in (x, y, z, x)",
		"A = ",
		"= x",
		"A in ()",
		"A in (x",
		"and and",
		"A = x or",
		"unknownattr = x",
		"A A A",
		"(A = x",
		"A in (x,)",
		"not",
		"",
		"  \t\n ",
		"A = x and B = A or C in (v1, v2) and not D# = d9",
		// Out-of-domain constants and reserved words (the parse-time
		// diagnostics added with the indexed engine).
		"A = zz",
		"A in (x, zz)",
		"MS in (married, divorced)",
		"or = x",
		"in in (x)",
		"not = x",
		"A = or",
		"A = not",
		"A in (and, or)",
		"NOT A = x AND B IN (y)",
		// ∨-heavy and multi-conjunct shapes: the planner's union and
		// intersection paths.
		"A = x and B = y and C in (x, y) or D# = d1",
		"(A = x or B = y) and (C = x or MS = single)",
		"A = x or A = y or A = married and not B = x",
		"(A = x and B = y) or (C = d1 and D# = d2) or MS in (married)",
		"A = B and B = C and C = D# or not (A = x or B = y)",
		"A in (x, y) and A in (y, married) and A in (y)",
		"not (A = x and B = y) or not (C in (x) or D# = d1)",
		"(A = x or (B = y and (C = married or D# = d1))) and MS = single",
	} {
		f.Add(seed)
	}
	dom := schema.MustDomain("d", "x", "y", "married", "single", "d1", "d2")
	s := schema.MustNew("R",
		[]string{"A", "B", "C", "D#", "MS"},
		[]*schema.Domain{dom, dom, dom, dom, dom})
	rows := []relation.Tuple{
		{value.NewConst("x"), value.NewConst("y"), value.NewConst("married"), value.NewConst("d1"), value.NewConst("single")},
		{value.NewNull(1), value.NewNull(1), value.NewNull(2), value.NewConst("d2"), value.NewNull(3)},
		{value.NewNothing(), value.NewConst("x"), value.NewNull(4), value.NewNothing(), value.NewConst("married")},
	}
	// The same rows as a relation, so accepted predicates also fuzz the
	// planners differentially against the naive scan.
	r := relation.New(s)
	for _, row := range rows {
		r.InsertUnchecked(row)
	}
	f.Fuzz(func(t *testing.T, input string) {
		p, err := ParsePred(s, input)
		if err != nil {
			if p != nil {
				t.Fatalf("rejected input returned a predicate: %q", input)
			}
			return // rejection is fine; panics are not
		}
		if p.String() == "" {
			t.Fatalf("accepted predicate renders empty: %q", input)
		}
		for _, row := range rows {
			v := p.Eval(s, row)
			if v != tvl.True && v != tvl.False && v != tvl.Unknown {
				t.Fatalf("predicate %q returned a non-truth value %v", input, v)
			}
		}
		want := Select(r, p)
		if got := SelectWith(r, p, Options{Engine: EngineIndexed}); !got.Equal(want) {
			t.Fatalf("predicate %q: indexed engine diverged from the scan: %v vs %v",
				input, got, want)
		}
	})
}

package query

// differential_test.go fuzzes the two selection engines against each
// other and against the exponential ground truth:
//
//   - the indexed planner must return the identical Result as the naive
//     scan on every randomized workload (shared marks across attributes,
//     `!` cells, out-of-domain constants in programmatic atoms included),
//     over relations, COW views, and delta-mutated cached indexes alike;
//   - the analytic evaluation behind both engines must be *sound*
//     against per-tuple EvalBrute — a Sure answer is true in every
//     completion, an excluded tuple in none — and *exact* on atoms;
//   - SelectAll must agree predicate-for-predicate with Select.
//
// `go test -short` runs a reduced trial count (the CI smoke).

import (
	"math/rand"
	"testing"

	"fdnull/internal/relation"
	"fdnull/internal/schema"
	"fdnull/internal/tvl"
	"fdnull/internal/value"
)

// diffScheme mixes domain shapes: A and B share a 3-value domain (so
// EqAttr can go all three ways), C has a 2-value domain disjoint from it
// (cheap domain exhaustion for In; a mark shared A↔C is contradictory),
// D a singleton domain (forced nulls), and E a domain *partially*
// overlapping A's — a mark shared A↔E narrows to the {v2, v3}
// intersection without emptying, the case that distinguishes feasible-
// value exactness from plain per-domain analysis.
func diffScheme() *schema.Scheme {
	d3 := schema.IntDomain("d3", "v", 3)
	return schema.MustNew("R", []string{"A", "B", "C", "D", "E"}, []*schema.Domain{
		d3, d3,
		schema.MustDomain("d2", "w1", "w2"),
		schema.MustDomain("d1", "only"),
		schema.MustDomain("dovl", "v2", "v3", "v4"),
	})
}

// randRelation builds an instance with shared marks across attributes
// and tuples, plus occasional `!` cells. InsertUnchecked keeps
// accidental duplicates (selection semantics do not care).
func randRelation(rng *rand.Rand, s *schema.Scheme, n int) *relation.Relation {
	r := relation.New(s)
	for i := 0; i < n; i++ {
		t := make(relation.Tuple, s.Arity())
		for a := range t {
			switch roll := rng.Intn(10); {
			case roll == 0:
				t[a] = value.NewNothing()
			case roll <= 3:
				t[a] = value.NewNull(1 + rng.Intn(4)) // marks 1..4 shared freely
			default:
				dom := s.Domain(schema.Attr(a))
				t[a] = value.NewConst(dom.Values[rng.Intn(dom.Size())])
			}
		}
		r.InsertUnchecked(t)
	}
	return r
}

// randPred builds a random predicate of the given depth; depth 0 yields
// an atom. Constants are drawn mostly in-domain with an out-of-domain
// "zz" mixed in (programmatic predicates may carry them).
func randPred(rng *rand.Rand, s *schema.Scheme, depth int) Pred {
	if depth == 0 {
		a := schema.Attr(rng.Intn(s.Arity()))
		dom := s.Domain(a)
		constant := func() string {
			if rng.Intn(8) == 0 {
				return "zz"
			}
			return dom.Values[rng.Intn(dom.Size())]
		}
		switch rng.Intn(3) {
		case 0:
			return Eq{Attr: a, Const: constant()}
		case 1:
			k := 1 + rng.Intn(3)
			vals := make([]string, k)
			for i := range vals {
				vals[i] = constant() // duplicates allowed on purpose
			}
			return In{Attr: a, Values: vals}
		default:
			return EqAttr{A: a, B: schema.Attr(rng.Intn(s.Arity()))}
		}
	}
	switch rng.Intn(3) {
	case 0:
		return Not{randPred(rng, s, depth-1)}
	case 1:
		return And{randPred(rng, s, depth-1), randPred(rng, s, rng.Intn(depth))}
	default:
		return Or{randPred(rng, s, depth-1), randPred(rng, s, rng.Intn(depth))}
	}
}

// verdictOf reads a tuple's three-valued verdict back out of a Result.
func verdictOf(res Result, i int) tvl.T {
	for _, j := range res.Sure {
		if j == i {
			return tvl.True
		}
	}
	for _, j := range res.Maybe {
		if j == i {
			return tvl.Unknown
		}
	}
	return tvl.False
}

func TestSelectDifferential(t *testing.T) {
	trials := 400
	if testing.Short() {
		trials = 80
	}
	rng := rand.New(rand.NewSource(19))
	s := diffScheme()
	for trial := 0; trial < trials; trial++ {
		r := randRelation(rng, s, 1+rng.Intn(24))
		depth := rng.Intn(4)
		p := randPred(rng, s, depth)
		naive := SelectWith(r, p, Options{Engine: EngineNaive})
		indexed := SelectWith(r, p, Options{Engine: EngineIndexed})
		if !naive.Equal(indexed) {
			t.Fatalf("trial %d: engines disagree on %s\nnaive   %v %v\nindexed %v %v\n%s",
				trial, p, naive.Sure, naive.Maybe, indexed.Sure, indexed.Maybe, r)
		}
		// A COW snapshot must answer identically with zero
		// materialization (a view is not an Indexer, so it scans).
		if snap := SelectWith(r.View(), p, Options{Engine: EngineIndexed}); !naive.Equal(snap) {
			t.Fatalf("trial %d: view disagrees on %s", trial, p)
		}
		// Per-tuple soundness against the exponential ground truth; on
		// atoms (depth 0) the analytic evaluation is exact.
		for i := 0; i < r.Len(); i++ {
			got := verdictOf(naive, i)
			want, err := EvalBrute(s, r.Tuple(i), p)
			if err != nil {
				t.Fatal(err)
			}
			if depth == 0 && got != want {
				t.Fatalf("trial %d: atom %s on %s: analytic=%v brute=%v",
					trial, p, r.Tuple(i), got, want)
			}
			if got != want && got != tvl.Unknown {
				t.Fatalf("trial %d: %s on %s: analytic=%v contradicts brute=%v",
					trial, p, r.Tuple(i), got, want)
			}
		}
	}
}

// TestSelectDifferentialDelta re-runs the engine agreement after delta
// mutations: the planner then probes cached indexes whose touched groups
// are no longer in ascending row order, which the ordering contract of
// Result must absorb.
func TestSelectDifferentialDelta(t *testing.T) {
	trials := 120
	if testing.Short() {
		trials = 30
	}
	rng := rand.New(rand.NewSource(23))
	s := diffScheme()
	for trial := 0; trial < trials; trial++ {
		r := randRelation(rng, s, 4+rng.Intn(12))
		// Warm the caches the planner will probe, then mutate through the
		// delta path so the cached indexes are updated in place.
		for a := 0; a < s.Arity(); a++ {
			r.IndexOn(schema.NewAttrSet(schema.Attr(a)))
		}
		for k := 0; k < 6; k++ {
			switch rng.Intn(3) {
			case 0:
				tup := make(relation.Tuple, s.Arity())
				for a := range tup {
					dom := s.Domain(schema.Attr(a))
					tup[a] = value.NewConst(dom.Values[rng.Intn(dom.Size())])
				}
				_, _ = r.InsertDelta(tup)
			case 1:
				if r.Len() > 1 {
					r.DeleteDelta(rng.Intn(r.Len()))
				}
			default:
				a := schema.Attr(rng.Intn(s.Arity()))
				dom := s.Domain(a)
				r.SetCellDelta(rng.Intn(r.Len()), a, value.NewConst(dom.Values[rng.Intn(dom.Size())]))
			}
		}
		p := randPred(rng, s, rng.Intn(3))
		naive := SelectWith(r, p, Options{Engine: EngineNaive})
		indexed := SelectWith(r, p, Options{Engine: EngineIndexed})
		if !naive.Equal(indexed) {
			t.Fatalf("trial %d: engines disagree after delta mutation on %s\nnaive   %v %v\nindexed %v %v\n%s",
				trial, p, naive.Sure, naive.Maybe, indexed.Sure, indexed.Maybe, r)
		}
	}
}

func TestSelectAllDifferential(t *testing.T) {
	trials := 40
	if testing.Short() {
		trials = 10
	}
	rng := rand.New(rand.NewSource(29))
	s := diffScheme()
	for trial := 0; trial < trials; trial++ {
		r := randRelation(rng, s, 1+rng.Intn(30))
		preds := make([]Pred, 1+rng.Intn(12))
		for i := range preds {
			preds[i] = randPred(rng, s, rng.Intn(4))
		}
		for _, e := range []Engine{EngineIndexed, EngineNaive} {
			batch := SelectAll(r, preds, Options{Engine: e, Workers: 1 + rng.Intn(8)})
			if len(batch) != len(preds) {
				t.Fatalf("trial %d: %d results for %d predicates", trial, len(batch), len(preds))
			}
			for i, p := range preds {
				if want := Select(r, p); !batch[i].Equal(want) {
					t.Fatalf("trial %d: SelectAll(%s) disagrees with Select on %s", trial, e, p)
				}
			}
		}
	}
	// The empty batch is a no-op, not a hang.
	if out := SelectAll(relation.New(s), nil, Options{}); len(out) != 0 {
		t.Errorf("empty batch returned %d results", len(out))
	}
}

// TestSelectEngineFallbacks pins the planner's degradation contract:
// un-indexable predicates (no ∧-spine atom) and non-Indexer sources use
// the scan, with identical results.
func TestSelectEngineFallbacks(t *testing.T) {
	s := diffScheme()
	rng := rand.New(rand.NewSource(31))
	r := randRelation(rng, s, 16)
	for _, p := range []Pred{
		Not{Eq{0, "v1"}},                        // negation: probe would be unsound
		Or{Eq{0, "v1"}, Eq{1, "v2"}},            // disjunction: same
		EqAttr{2, 2},                            // self-equality: no probe set
		And{Not{Eq{0, "v1"}}, Not{Eq{1, "v1"}}}, // conjuncts, none indexable
	} {
		naive := SelectWith(r, p, Options{Engine: EngineNaive})
		indexed := SelectWith(r, p, Options{Engine: EngineIndexed})
		if !naive.Equal(indexed) {
			t.Errorf("fallback disagreement on %s", p)
		}
	}
}

// TestParseEngine pins what is left of the engine's spelling now that no
// flag parses it: the renderings are part of the plan report, where the
// oracle names itself as the reason for its scan.
func TestParseEngine(t *testing.T) {
	for e, want := range map[Engine]string{EngineIndexed: "indexed", EngineNaive: "naive", Engine(99): "Engine(99)"} {
		if got := e.String(); got != want {
			t.Errorf("Engine(%d).String() = %q, want %q", int(e), got, want)
		}
	}
	r := randRelation(rand.New(rand.NewSource(5)), diffScheme(), 8)
	_, ex := SelectExplain(r, Eq{0, "v1"}, Options{Engine: EngineNaive})
	if !ex.Scan || ex.Engine != "naive" || ex.Reason != "naive engine" {
		t.Errorf("naive explain = %+v", ex)
	}
}

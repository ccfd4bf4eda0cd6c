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
//   - SelectAll must agree predicate-for-predicate with Select, on random
//     relations and on two fixed-shape batteries over employee instances.
//
// `go test -short` runs a reduced trial count (the CI smoke).

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"fdnull/internal/relation"
	"fdnull/internal/schema"
	"fdnull/internal/tvl"
	"fdnull/internal/value"
	"fdnull/internal/workload"
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
// Result must absorb. About half the columns of each relation hold
// constants only, so a probe on one has no null sidecar to sort in and
// the group's own order is the candidates' order.
func TestSelectDifferentialDelta(t *testing.T) {
	trials := 120
	if testing.Short() {
		trials = 30
	}
	rng := rand.New(rand.NewSource(23))
	s := diffScheme()
	for trial := 0; trial < trials; trial++ {
		r := randRelation(rng, s, 4+rng.Intn(12))
		for a := 0; a < s.Arity(); a++ {
			if rng.Intn(2) == 0 {
				continue
			}
			dom := s.Domain(schema.Attr(a))
			for i := 0; i < r.Len(); i++ {
				if !r.Tuple(i)[a].IsConst() {
					r.SetCellDelta(i, schema.Attr(a), value.NewConst(dom.Values[rng.Intn(dom.Size())]))
				}
			}
		}
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

// TestSelectAllDifferential holds SelectAll, on both engines and any
// worker count, to Select predicate for predicate: on small random
// relations with random predicates, and on employee instances (10% nulls)
// up to n = 1000 (2000 outside -short) with the two 96-predicate
// batteries, queryShape and orShape, at Workers 1 and GOMAXPROCS.
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

	sizes := []int{100, 250, 1000}
	if !testing.Short() {
		sizes = append(sizes, 500, 2000)
	}
	for _, n := range sizes {
		t.Run(fmt.Sprintf("employees/n=%d", n), func(t *testing.T) {
			es, _, r := workload.Employees(n, 8, 0.1, int64(n)+19)
			for _, b := range []struct {
				name  string
				shape func(a *predAtoms, i int) Pred
			}{{"mixed", queryShape}, {"∨", orShape}} {
				a := &predAtoms{rand.New(rand.NewSource(int64(n))), es.MustAttr("E#"), es.MustAttr("D#"), es.MustAttr("CT"), n, 8}
				preds := make([]Pred, 96)
				for i := range preds {
					preds[i] = b.shape(a, i)
				}
				naive := SelectAll(r, preds, Options{Engine: EngineNaive, Workers: 1})
				if err := sanityCheckAnswers(naive); err != nil {
					t.Fatalf("n=%d %s battery: %v", n, b.name, err)
				}
				for _, w := range []int{1, runtime.GOMAXPROCS(0)} {
					got := SelectAll(r, preds, Options{Workers: w})
					for i, p := range preds {
						if !naive[i].Equal(got[i]) {
							t.Fatalf("n=%d %s battery, %d workers: answers differ on %s\nnaive   %v %v\nindexed %v %v",
								n, b.name, w, p, naive[i].Sure, naive[i].Maybe, got[i].Sure, got[i].Maybe)
						}
					}
				}
			}
		})
	}
}

// predAtoms draws a battery's atoms over the employee scheme, every
// constant from one seeded source.
type predAtoms struct {
	rng         *rand.Rand
	e, d, ct    schema.Attr
	nEmp, nDept int
}

func (a *predAtoms) emp() string            { return fmt.Sprintf("e%d", 1+a.rng.Intn(a.nEmp)) }
func (a *predAtoms) dep() string            { return fmt.Sprintf("d%d", 1+a.rng.Intn(a.nDept)) }
func (a *predAtoms) eqE() Pred              { return Eq{Attr: a.e, Const: a.emp()} }
func (a *predAtoms) eqD() Pred              { return Eq{Attr: a.d, Const: a.dep()} }
func (a *predAtoms) eqCT(c string) Pred     { return Eq{Attr: a.ct, Const: c} }
func in(x schema.Attr, vals ...string) Pred { return In{Attr: x, Values: vals} }

// queryShape is predicate i of the mixed battery: point probes on the
// key, department probes with residual conjuncts, membership atoms
// (including domain-covering ones — the paper's married-or-single
// transformation), and un-indexable negation shapes that exercise the
// planner's scan fallback.
func queryShape(a *predAtoms, i int) Pred {
	switch i % 12 {
	case 1, 9:
		return And{P: a.eqD(), Q: a.eqCT("full")}
	case 2, 6:
		return And{P: a.eqE(), Q: Not{P: a.eqCT("part")}}
	case 3:
		return And{P: in(a.d, a.dep(), a.dep()), Q: in(a.ct, "full", "part")}
	case 5:
		return And{P: a.eqD(), Q: Or{P: a.eqCT("full"), Q: EqAttr{A: a.e, B: a.e}}}
	case 7, 10:
		return in(a.e, a.emp(), a.emp(), a.emp())
	case 11:
		if i%24 == 11 {
			// No indexable conjunct: the planner must fall back to the
			// scan (kept to 1 in 24 — each costs n in BOTH engines).
			return Not{P: a.eqD()}
		}
	}
	return a.eqE() // 0, 4, 8 and every other 11
}

// orShape is predicate i of the ∨/multi-conjunct battery. Two thirds of
// the shapes carry a disjunction (planned as a union of the arms'
// probes), the rest are ∧-chains of three indexable atoms (all probes
// intersected before the residual).
func orShape(a *predAtoms, i int) Pred {
	switch i % 6 {
	case 0, 3:
		return Or{P: a.eqE(), Q: a.eqE()}
	case 1:
		return Or{P: And{P: a.eqD(), Q: a.eqCT("full")}, Q: a.eqE()}
	case 2:
		return And{P: a.eqD(), Q: And{P: in(a.ct, "full", "part"), Q: in(a.e, a.emp(), a.emp(), a.emp())}}
	case 4:
		return Or{P: in(a.e, a.emp(), a.emp()), Q: And{P: a.eqD(), Q: a.eqCT("part")}}
	}
	return Or{P: a.eqE(), Q: Or{P: a.eqE(), Q: And{P: a.eqD(), Q: a.eqCT("part")}}}
}

// sanityCheckAnswers guards against a degenerate battery: engine
// agreement alone would also pass on a battery that answers nothing (e.g.
// a mis-generated workload), so some predicate must answer something.
func sanityCheckAnswers(res []Result) error {
	for _, r := range res {
		if len(r.Sure)+len(r.Maybe) > 0 {
			return nil
		}
	}
	return errors.New("battery answered nothing at all; workload broken")
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

// Package query implements three-valued selection over relations with
// nulls, using the least-extension rule of Section 2 of the paper.
//
// A query predicate is a function from tuples to truth values. With a
// null in play, the paper's rule evaluates the predicate for every
// substitution of the null and returns the least upper bound of the
// answers in the information ordering:
//
//	Q:  marital-status = "married"        on ("John", null) → unknown
//	Q': marital-status ∈ {married,single} on ("John", null) → true
//
// (the paper's Section 2 example: the second query is true because every
// substitution yields yes, so the incomplete knowledge is immaterial).
//
// The evaluators below compute these lubs *analytically* per atom rather
// than enumerating substitutions — the paper's point that "syntactic query
// transformations" make the evaluation practical ([Vassiliou 79]):
//
//   - attr = c   over a null is unknown, unless the cell's feasible
//     values (its domain, narrowed by attributes sharing its mark) force
//     it — enumeration-free least extension;
//   - attr ∈ S  over a null is true when the feasible values are ⊆ S,
//     false when disjoint from S, unknown otherwise;
//   - attr1 = attr2 over nulls is true when both cells are the *same
//     marked null* (they denote one value) or both are forced to one
//     equal constant, false when their feasible values cannot intersect,
//     unknown otherwise;
//   - boolean connectives are strong Kleene (the lub-compatible
//     extensions of ∧, ∨, ¬).
//
// On *atoms* the analytic evaluation equals the least extension exactly.
// On composite formulas it is a sound approximation: it never returns a
// wrong definite answer, but may return unknown where enumerating the
// completions of the whole formula would decide (e.g. ¬(A=B ∧ A=c) on a
// null is true under every substitution, yet the Kleene composition of
// two unknowns is unknown). This is the same gap System C's rule 1 closes
// for tautologies (Section 5's p ∨ ¬p discussion); EvalBrute computes the
// exact whole-formula least extension when the completion space is small.
//
// # The contradictory-tuple convention
//
// A tuple that admits no completion denotes no real tuple, so it can
// belong to no selection answer: every predicate — atom or connective
// alike — evaluates to false on it. Two shapes of tuple qualify: one
// carrying the inconsistent element `!` in any cell, and one whose
// marked null is shared across attributes whose domains intersect
// emptily (the single denoted value would have to lie in all of them).
// The guard applies uniformly at every node of the formula (not(A = c)
// is false on a contradictory tuple, not true), which is exactly what
// EvalBrute computes: the least extension over an empty completion set
// is the empty answer, and a tuple that is never in the answer is a
// definite no. Without the uniform guard, Kleene negation over an
// atom's per-cell false would manufacture a wrong definite yes on a
// tuple that cannot exist.
//
// The guard cannot fire on a tuple of constants only, so Plan.Run skips
// it there; a store holds no `!`, so there it fires only on a null.
package query

import (
	"fmt"
	"iter"
	"slices"
	"strings"

	"fdnull/internal/relation"
	"fdnull/internal/schema"
	"fdnull/internal/tvl"
)

// Pred is a three-valued predicate over tuples of a fixed scheme.
//
// Implementations outside this package must honor two contracts: Eval
// returns false on any tuple admitting no completion (the
// contradictory-tuple convention below), and String renders the
// predicate *unambiguously* — two predicates with different semantics
// must render differently, because plan reports (explain.go) identify
// pushed atoms by the rendering (the package's own atoms quote their
// constants for exactly this reason).
type Pred interface {
	// Eval returns the least-extension truth value of the predicate on t.
	// On a tuple admitting no completion — a `!` cell anywhere, or a mark
	// spanning domains with empty intersection — it returns false
	// regardless of the predicate's shape (the contradictory-tuple
	// convention above).
	Eval(s *schema.Scheme, t relation.Tuple) tvl.T
	fmt.Stringer
}

// contradictory reports whether t admits no completion — the uniform
// guard every Eval applies before its own case analysis, so atoms and
// connectives agree with EvalBrute's empty completion set on such
// tuples. Two shapes qualify: a `!` cell anywhere, and a marked null
// shared across attributes whose domains intersect emptily (the one
// denoted value would have to lie in every carrying attribute's domain).
func contradictory(s *schema.Scheme, t relation.Tuple) bool {
	for _, v := range t {
		if v.IsNothing() {
			return true
		}
	}
	for i, v := range t {
		// feasibleValues answers from the domain itself, without
		// allocating, unless the mark spans different domains.
		if v.IsNull() && !earlierMark(t, i) {
			if vals, _ := feasibleValues(s, t, schema.Attr(i)); len(vals) == 0 {
				return true
			}
		}
	}
	return false
}

// earlierMark reports whether t[i]'s mark already occurred before i, so
// each mark's satisfiability is checked once.
func earlierMark(t relation.Tuple, i int) bool {
	for j := 0; j < i; j++ {
		if t[j].IsNull() && t[j].Mark() == t[i].Mark() {
			return true
		}
	}
	return false
}

// Eq is the atom attr = const.
type Eq struct {
	Attr  schema.Attr
	Const string
}

// In is the atom attr ∈ Values.
type In struct {
	Attr   schema.Attr
	Values []string
}

// EqAttr is the atom attr1 = attr2.
type EqAttr struct {
	A, B schema.Attr
}

// Not negates a predicate.
type Not struct{ P Pred }

// And conjoins two predicates.
type And struct{ P, Q Pred }

// Or disjoins two predicates.
type Or struct{ P, Q Pred }

func (e Eq) String() string { return fmt.Sprintf("#%d = %q", e.Attr, e.Const) }

// String quotes each value (like Eq): unquoted joining would let
// {`a,b`} and {`a`, `b`} render alike.
func (i In) String() string {
	quoted := make([]string, len(i.Values))
	for k, v := range i.Values {
		quoted[k] = fmt.Sprintf("%q", v)
	}
	return fmt.Sprintf("#%d in {%s}", i.Attr, strings.Join(quoted, ","))
}
func (e EqAttr) String() string { return fmt.Sprintf("#%d = #%d", e.A, e.B) }
func (n Not) String() string    { return "not(" + n.P.String() + ")" }
func (a And) String() string    { return "(" + a.P.String() + " and " + a.Q.String() + ")" }
func (o Or) String() string     { return "(" + o.P.String() + " or " + o.Q.String() + ")" }

// EvalTuple computes p's least-extension value on t: one
// contradictory-tuple check, then the guard-free evaluation. It is what
// every Eval method delegates to, and the engines' per-tuple entry point
// (Select, the planner) — calling it directly guards once per tuple
// instead of once per formula node.
func EvalTuple(s *schema.Scheme, t relation.Tuple, p Pred) tvl.T {
	if contradictory(s, t) {
		return tvl.False
	}
	return evalRaw(s, t, p)
}

// evalRaw dispatches the package's own predicate shapes to their
// guard-free evaluators (the caller has established the tuple admits a
// completion); a Pred from outside the package evaluates through its
// own Eval, which owes the convention by the interface contract.
func evalRaw(s *schema.Scheme, t relation.Tuple, p Pred) tvl.T {
	switch q := p.(type) {
	case Eq:
		return q.eval(s, t)
	case In:
		return q.eval(s, t)
	case EqAttr:
		return q.eval(s, t)
	case Not:
		return tvl.Not(evalRaw(s, t, q.P))
	case And:
		return tvl.And(evalRaw(s, t, q.P), evalRaw(s, t, q.Q))
	case Or:
		return tvl.Or(evalRaw(s, t, q.P), evalRaw(s, t, q.Q))
	default:
		return p.Eval(s, t)
	}
}

// feasibleValues returns the constants a null cell can complete to: the
// cell's domain, narrowed by every other attribute carrying the same
// mark (one unknown value must lie in all of them) — empty exactly when
// the mark's cells admit no common substitution, which is how
// contradictory decides. A mark no other domain narrows (the common
// case) returns the domain's own slice without allocating.
func feasibleValues(s *schema.Scheme, t relation.Tuple, a schema.Attr) (vals []string, narrowed bool) {
	dom, mark := s.Domain(a), t[a].Mark()
	for j, w := range t {
		narrowed = narrowed || w.IsNull() && w.Mark() == mark && s.Domain(schema.Attr(j)) != dom
	}
	if !narrowed {
		return dom.Values, false
	}
	for _, c := range dom.Values {
		ok := true
		for j, w := range t {
			if w.IsNull() && w.Mark() == mark && !s.Domain(schema.Attr(j)).Contains(c) {
				ok = false
				break
			}
		}
		if ok {
			vals = append(vals, c)
		}
	}
	return vals, true
}

// feasibleHas reports whether c is among the null t[a]'s feasible values,
// and how many there are. A null no other domain narrows ranges over its
// whole domain: one Domain.Contains probe and Domain.Size answer.
func feasibleHas(s *schema.Scheme, t relation.Tuple, a schema.Attr, c string) (bool, int) {
	vals, narrowed := feasibleValues(s, t, a)
	if !narrowed {
		return s.Domain(a).Contains(c), len(vals)
	}
	return slices.Contains(vals, c), len(vals)
}

// nullEq decides null = c for the null t[a]: impossible when c is not
// feasible, forced when it is the only feasible value.
func nullEq(s *schema.Scheme, t relation.Tuple, a schema.Attr, c string) tvl.T {
	switch in, n := feasibleHas(s, t, a, c); {
	case !in:
		return tvl.False
	case n == 1:
		return tvl.True
	}
	return tvl.Unknown
}

// Eval for attr = c: a constant compares directly; a null's completions
// cover its feasible values (the domain, narrowed by shared marks), so
// the lub is unknown unless the feasible set is the singleton {c} (then
// every completion answers yes) or c is outside it (every completion
// answers no). A contradictory tuple is false by the package convention.
func (e Eq) Eval(s *schema.Scheme, t relation.Tuple) tvl.T {
	return EvalTuple(s, t, e)
}

func (e Eq) eval(s *schema.Scheme, t relation.Tuple) tvl.T {
	v := t[e.Attr]
	if v.IsConst() {
		return tvl.FromBool(v.Const() == e.Const)
	}
	return nullEq(s, t, e.Attr, e.Const)
}

// Eval for attr ∈ S — the paper's married-or-single example: the lub
// over all substitutions is true when the feasible values are covered by
// S, false when disjoint from S, unknown otherwise.
func (i In) Eval(s *schema.Scheme, t relation.Tuple) tvl.T {
	return EvalTuple(s, t, i)
}

func (i In) eval(s *schema.Scheme, t relation.Tuple) tvl.T {
	v := t[i.Attr]
	if v.IsConst() {
		return tvl.FromBool(slices.Contains(i.Values, v.Const()))
	}
	// Count the distinct listed values that are feasible (feasible values
	// are distinct, and a tuple that got here has at least one).
	hits, size := 0, 0
	for k, c := range i.Values {
		in, n := feasibleHas(s, t, i.Attr, c)
		if size = n; in && !slices.Contains(i.Values[:k], c) {
			hits++
		}
	}
	switch hits {
	case 0:
		return tvl.False
	case size:
		return tvl.True
	}
	return tvl.Unknown
}

// Eval for attr1 = attr2: same marked null denotes one unknown value and
// compares equal; distinct constants compare directly; otherwise the
// comparison is decided over the cells' feasible value sets — false when
// they cannot intersect, true when both are forced to the same
// singleton, unknown in between. With the shared-mark narrowing this is
// the exact least extension of the atom.
func (e EqAttr) Eval(s *schema.Scheme, t relation.Tuple) tvl.T {
	return EvalTuple(s, t, e)
}

func (e EqAttr) eval(s *schema.Scheme, t relation.Tuple) tvl.T {
	a, b := t[e.A], t[e.B]
	switch {
	case a.IsConst() && b.IsConst():
		return tvl.FromBool(a.Const() == b.Const())
	case a.IsNull() && b.IsNull() && a.Mark() == b.Mark():
		return tvl.True
	case a.IsNull() && b.IsConst():
		return nullEq(s, t, e.A, b.Const())
	case b.IsNull() && a.IsConst():
		return nullEq(s, t, e.B, a.Const())
	default:
		// Two independently marked nulls: each ranges over its own
		// feasible set.
		va, _ := feasibleValues(s, t, e.A)
		vb, _ := feasibleValues(s, t, e.B)
		if !slices.ContainsFunc(va, func(c string) bool { return slices.Contains(vb, c) }) {
			return tvl.False
		}
		if len(va) == 1 && len(vb) == 1 {
			return tvl.True // they intersect, so the two singletons agree
		}
		return tvl.Unknown
	}
}

// Eval for ¬P is strong-Kleene negation. The contradictory-tuple guard
// runs *before* the negation (inside EvalTuple): a tuple that exists in
// no completion is a definite no for ¬P exactly as it is for P —
// flipping the operand's false would fabricate a yes about a tuple that
// isn't there.
func (n Not) Eval(s *schema.Scheme, t relation.Tuple) tvl.T {
	return EvalTuple(s, t, n)
}

func (a And) Eval(s *schema.Scheme, t relation.Tuple) tvl.T {
	return EvalTuple(s, t, a)
}

func (o Or) Eval(s *schema.Scheme, t relation.Tuple) tvl.T {
	return EvalTuple(s, t, o)
}

// Source is the read surface a selection evaluates over: a stable set of
// tuples with positional access and zero-allocation iteration. Both
// *relation.Relation and relation.View satisfy it, so snapshots are
// queried with zero materialization. The source must not be mutated
// while a selection runs: views are immutable by construction, and the
// store evaluates on its live relation under the handle's read lock.
type Source interface {
	Scheme() *schema.Scheme
	Len() int
	Tuple(i int) relation.Tuple
	All() iter.Seq2[int, relation.Tuple]
}

// Result partitions a selection's answer by certainty. Both lists are in
// ascending tuple order regardless of the engine that produced them.
//
// A Result passed to Plan.Run or SelectInto is emptied and refilled in
// place, and SelectInto keeps its planner's scratch in it: a reader that
// selects again and again through one Result reuses the same arrays. A
// copy of a Result shares them.
type Result struct {
	// Sure lists indices of tuples where the predicate is true: they
	// belong to the answer under every completion.
	Sure []int
	// Maybe lists indices where the predicate is unknown: they belong to
	// the answer under some completions.
	Maybe []int

	plan *Plan // SelectInto's planner, compiled again on every call
}

// Equal reports that two results list the same answers with the same
// certainty — the agreement check of the engine differentials.
func (r Result) Equal(o Result) bool {
	return slices.Equal(r.Sure, o.Sure) && slices.Equal(r.Maybe, o.Maybe)
}

// Select evaluates the predicate on every tuple and partitions the
// source into certain and possible answers (tuples evaluating to false —
// including every contradictory tuple — are dropped). This is the naive
// full-scan engine, kept as the differential ground truth for the
// planner; SelectWith picks the engine explicitly.
func Select(src Source, p Pred) Result {
	var res Result
	scan(src, p, &res)
	return res
}

// scan empties res and fills it with Select's answer. It walks by
// position, not through All, whose loop body would put res on the heap.
func scan(src Source, p Pred, res *Result) {
	res.Sure, res.Maybe = res.Sure[:0], res.Maybe[:0]
	s := src.Scheme()
	for i, n := 0, src.Len(); i < n; i++ {
		switch EvalTuple(s, src.Tuple(i), p) {
		case tvl.True:
			res.Sure = append(res.Sure, i)
		case tvl.Unknown:
			res.Maybe = append(res.Maybe, i)
		}
	}
}

// EvalBrute computes the least-extension value of p on t by enumerating
// the completions of t — the definition the analytic atoms shortcut. Used
// by tests as ground truth; exponential.
func EvalBrute(s *schema.Scheme, t relation.Tuple, p Pred) (tvl.T, error) {
	comps, err := relation.TupleCompletions(s, t, s.All())
	if err != nil {
		return tvl.Unknown, err
	}
	if len(comps) == 0 {
		// A contradictory tuple admits no completion, so it is in no
		// answer: false — the convention every Eval guard mirrors.
		return tvl.False, nil
	}
	var vals []tvl.T
	for _, c := range comps {
		vals = append(vals, p.Eval(s, c))
	}
	return tvl.Lub(vals...), nil
}

// Package eval implements the extended interpretation of functional
// dependencies over relations with nulls (Section 4 of the paper).
//
// Two evaluators are provided:
//
//   - Value: the *definition* — the least-extension rule. It enumerates the
//     completions AP(r, XY) and returns the information-ordering lub of the
//     classical evaluations. Exponential; used as ground truth.
//   - Classify: the *theorem* — Proposition 1's case analysis, generalized
//     to tuples with several nulls by iterating the substitutions of the
//     tuple's own X-nulls (the paper's "consider all completions
//     iteratively"). Polynomial in |r| for a bounded number of nulls in the
//     classified tuple, and exactly the paper's [T1][T2][T3]/[F1][F2] cases
//     in the single-null setting of the paper's figures.
//
// On top of the per-tuple truth value, the package defines the two notions
// of satisfiability: an FD strongly holds when every tuple evaluates to
// true, and weakly holds when no tuple evaluates to false. For *sets* of
// FDs, weak satisfiability is the existence of one completion satisfying
// all the dependencies simultaneously — the Section 6 example shows this is
// strictly stronger than each FD weakly holding on its own.
package eval

import (
	"fmt"
	"math/bits"

	"fdnull/internal/fd"
	"fdnull/internal/relation"
	"fdnull/internal/schema"
	"fdnull/internal/tvl"
)

// Case labels the Proposition 1 condition that fired.
type Case string

// The Proposition 1 cases. CaseGeneral marks verdicts reached through the
// iterated-completion generalization rather than a single printed condition.
const (
	CaseT1      Case = "T1" // no nulls in t[XY], no conflicting tuple
	CaseT2      Case = "T2" // null in t[Y], t[X] unique in r
	CaseT3      Case = "T3" // null in t[X], all matching completions agree on Y
	CaseF1      Case = "F1" // no nulls in t[XY] (or only in Y), witnessed conflict
	CaseF2      Case = "F2" // null in t[X], domain exhausted, t[Y] unique
	CaseUnknown Case = "U"  // any remaining situation
	CaseGeneral Case = "general"
)

// Verdict is the outcome of classifying one tuple against one FD.
type Verdict struct {
	Truth tvl.T
	Case  Case
}

func (v Verdict) String() string {
	return fmt.Sprintf("%s [%s]", v.Truth, v.Case)
}

// classicalHolds evaluates f on a null-free (on XY) instance: true iff no
// pair of tuples agrees on X and disagrees on Y.
func classicalHolds(f fd.FD, r *relation.Relation) bool {
	ts := r.Tuples()
	for i := range ts {
		for j := i + 1; j < len(ts); j++ {
			if ts[i].ConstEqOn(ts[j], f.X) && !ts[i].ConstEqOn(ts[j], f.Y) {
				return false
			}
		}
	}
	return true
}

// classicalTuple evaluates f(t, r) on a null-free (on XY) instance per the
// paper's Section 3 definition.
func classicalTuple(f fd.FD, r *relation.Relation, ti int) bool {
	t := r.Tuple(ti)
	for j, u := range r.Tuples() {
		if j == ti {
			continue
		}
		if t.ConstEqOn(u, f.X) && !t.ConstEqOn(u, f.Y) {
			return false
		}
	}
	return true
}

// Value computes f(t, r) by the least-extension definition: enumerate all
// completions of r on X∪Y (nulls sharing a mark co-vary) and lub the
// classical evaluations. Returns relation.ErrTooManyCompletions when the
// instance is too incomplete to enumerate, and an error on `nothing` cells
// (the paper's FD semantics is defined over constants and missing nulls
// only).
func Value(f fd.FD, r *relation.Relation, ti int) (tvl.T, error) {
	xy := f.X.Union(f.Y)
	for _, t := range r.Tuples() {
		if t.HasNothingOn(xy) {
			return tvl.Unknown, fmt.Errorf("eval: instance contains the inconsistent element on %s", r.Scheme().FormatSet(xy))
		}
	}
	comps, err := relation.RelationCompletions(r, xy)
	if err != nil {
		return tvl.Unknown, err
	}
	var vals []tvl.T
	for _, c := range comps {
		vals = append(vals, tvl.FromBool(classicalTuple(f, c, ti)))
	}
	return tvl.Lub(vals...), nil
}

// Classify computes f(t, r) through Proposition 1. The tuples of r other
// than t must be null-free on X∪Y (the proposition's "Assume that r−{t}
// has no nulls"); use Evaluate for the general case. The tuple's own nulls
// on X are iterated over their domains, so the cost is
// O(Π|dom| · n · |XY|) with the product over t's X-null marks only.
func Classify(f fd.FD, r *relation.Relation, ti int) (Verdict, error) {
	s := r.Scheme()
	xy := f.X.Union(f.Y)
	t := r.Tuple(ti)
	if t.HasNothingOn(xy) {
		return Verdict{}, fmt.Errorf("eval: tuple %d has the inconsistent element on %s", ti, s.FormatSet(xy))
	}
	for j, u := range r.Tuples() {
		if j == ti {
			continue
		}
		if u.HasNullOn(xy) || u.HasNothingOn(xy) {
			return Verdict{}, fmt.Errorf("eval: Classify requires r−{t} null-free on %s (tuple %d is not); use Evaluate", s.FormatSet(xy), j)
		}
	}
	nx, ny := len(t.NullsOn(f.X)), len(t.NullsOn(f.Y))

	xComps, err := relation.TupleCompletions(s, t, xSubstSet(f, t))
	if err != nil {
		return Verdict{}, err
	}
	var results []tvl.T
	for _, tc := range xComps {
		results = append(results, classifyXComplete(f, r, ti, tc))
	}
	truth := tvl.Lub(results...)
	return Verdict{Truth: truth, Case: caseLabel(truth, nx, ny)}, nil
}

// xSubstSet returns the attribute set over which the substitutions σ of
// t's X-nulls iterate: X itself, plus any Y cell sharing a mark with an
// X-null — it denotes the same unknown value, so it is substituted by σ as
// well, keeping completions consistent. Shared between Classify and the
// indexed engine's classify so the engines cannot drift.
func xSubstSet(f fd.FD, t relation.Tuple) schema.AttrSet {
	subst := f.X
	for y := uint64(f.Y); y != 0; y &= y - 1 {
		a := schema.Attr(bits.TrailingZeros64(y))
		if v := t[a]; v.IsNull() && markOn(t, f.X, v.Mark()) {
			subst = subst.Add(a)
		}
	}
	return subst
}

// markOn reports whether some null of t on set carries mark.
func markOn(t relation.Tuple, set schema.AttrSet, mark int) bool {
	for v := uint64(set); v != 0; v &= v - 1 {
		if w := t[bits.TrailingZeros64(v)]; w.IsNull() && w.Mark() == mark {
			return true
		}
	}
	return false
}

// classifyXComplete evaluates f(tc, r−{t} ∪ {tc}) where tc[X] is null-free
// but tc[Y] may retain nulls, finding the matching tuples by a linear scan.
// The indexed engine (engine.go) finds the same match set by a hash probe;
// both share classifyAgainstMatches for the Y-side analysis.
func classifyXComplete(f fd.FD, r *relation.Relation, ti int, tc relation.Tuple) tvl.T {
	// Matches: other tuples agreeing with tc on X (all constants now).
	var matches []relation.Tuple
	for j, u := range r.Tuples() {
		if j == ti {
			continue
		}
		if tc.ConstEqOn(u, f.X) {
			matches = append(matches, u)
		}
	}
	return classifyAgainstMatches(f, r.Scheme(), tc, matches)
}

// classifyAgainstMatches is the core of Proposition 1's Y-side analysis,
// generalized to multi-attribute Y and shared null marks: it evaluates
// f(tc, ·) given the set of tuples that agree with tc on X.
func classifyAgainstMatches(f fd.FD, s *schema.Scheme, tc relation.Tuple, matches []relation.Tuple) tvl.T {
	if len(matches) == 0 {
		return tvl.True // [T1]/[T2]: tc[X] unique in r
	}
	// Non-null Y attributes must agree with every match, else false for
	// every substitution of the remaining nulls ([F1]).
	for y := uint64(f.Y); y != 0; y &= y - 1 {
		a := bits.TrailingZeros64(y)
		if tc[a].IsNull() {
			continue
		}
		for _, u := range matches {
			if !tc[a].SameConst(u[a]) {
				return tvl.False
			}
		}
	}
	// Null Y attributes, grouped by mark (shared marks co-vary): a
	// substitution v satisfies the group iff v equals every match's value
	// on every attribute of the group. A group is visited at its first
	// attribute and walked in place.
	canBeFalse := false
	for y := uint64(f.Y); y != 0; y &= y - 1 {
		first := bits.TrailingZeros64(y)
		v := tc[first]
		if !v.IsNull() || markOn(tc, f.Y&schema.AttrSet(1<<first-1), v.Mark()) {
			continue
		}
		group := func(yield func(a schema.Attr) bool) {
			for g := y; g != 0; g &= g - 1 {
				a := schema.Attr(bits.TrailingZeros64(g))
				if w := tc[a]; w.IsNull() && w.Mark() == v.Mark() && !yield(a) {
					return
				}
			}
		}
		// The single value all matches force on this group, if any.
		forced := matches[0][first]
		for a := range group {
			for _, u := range matches {
				if !u[a].SameConst(forced) {
					return tvl.False // no substitution satisfies this group
				}
			}
		}
		// Substitutions range over the intersection of the group's
		// attribute domains (shared marks across attributes).
		inDomain := func(c string) bool {
			for a := range group {
				if !s.Domain(a).Contains(c) {
					return false
				}
			}
			return true
		}
		if !inDomain(forced.Const()) {
			return tvl.False // the only satisfying value is unavailable
		}
		for _, c := range s.Domain(schema.Attr(first)).Values {
			if c != forced.Const() && inDomain(c) {
				canBeFalse = true // a deviating substitution falsifies
				break
			}
		}
	}
	if canBeFalse {
		return tvl.Unknown
	}
	return tvl.True // every group forced to its only available value
}

func caseLabel(truth tvl.T, nx, ny int) Case {
	switch {
	case nx == 0 && ny == 0:
		if truth == tvl.True {
			return CaseT1
		}
		return CaseF1
	case nx == 0 && ny > 0:
		switch truth {
		case tvl.True:
			// [T2] proper requires t[X] unique in r; with a forced
			// singleton domain the label is still T2-shaped.
			return CaseT2
		case tvl.False:
			return CaseF1
		default:
			return CaseUnknown
		}
	case nx > 0 && ny == 0:
		switch truth {
		case tvl.True:
			return CaseT3
		case tvl.False:
			return CaseF2
		default:
			return CaseUnknown
		}
	default:
		// Nulls on both sides: outside Proposition 1's printed cases.
		if truth == tvl.Unknown {
			return CaseUnknown
		}
		return CaseGeneral
	}
}

// Evaluate computes f(t, r) efficiently where possible: it applies
// Classify directly when the rest of the instance is null-free on X∪Y, and
// otherwise iterates the completions of the *other* tuples' nulls
// (Proposition 1's "consider all completions of r−{t} iteratively"),
// taking the lub of the classifications.
func Evaluate(f fd.FD, r *relation.Relation, ti int) (Verdict, error) {
	if v, err := Classify(f, r, ti); err == nil {
		return v, nil
	}
	xy := f.X.Union(f.Y)
	// Classify the tuple against every completion of the rest. Completing
	// the rest co-varies shared marks, so marks shared between t and other
	// tuples must go through full enumeration: completing the rest would fix
	// t's nulls too, which is exactly what the definition requires — so
	// delegate to Value in that case.
	t := r.Tuple(ti)
	shared := false
	for j, u := range r.Tuples() {
		if j == ti {
			continue
		}
		for v := uint64(xy); v != 0 && !shared; v &= v - 1 {
			w := u[bits.TrailingZeros64(v)]
			shared = w.IsNull() && markOn(t, xy, w.Mark())
		}
	}
	if shared {
		truth, err := Value(f, r, ti)
		if err != nil {
			return Verdict{}, err
		}
		return Verdict{Truth: truth, Case: CaseGeneral}, nil
	}
	// The rest is read in place: RelationCompletions refuses an over-large
	// completion set before it copies a row.
	comps, err := relation.RelationCompletions(without{r, ti}, xy)
	if err != nil {
		return Verdict{}, err
	}
	var results []tvl.T
	for _, c := range comps {
		c.InsertUnchecked(t) // c is read once and dropped: it may share t with r
		v, err := Classify(f, c, c.Len()-1)
		if err != nil {
			return Verdict{}, err
		}
		results = append(results, v.Truth)
	}
	return Verdict{Truth: tvl.Lub(results...), Case: CaseGeneral}, nil
}

// without is r less row skip, read in place.
type without struct {
	r    *relation.Relation
	skip int
}

func (w without) Scheme() *schema.Scheme { return w.r.Scheme() }
func (w without) Len() int               { return w.r.Len() - 1 }
func (w without) Tuple(i int) relation.Tuple {
	if i >= w.skip {
		i++
	}
	return w.r.Tuple(i)
}

// StrongHolds reports whether f strongly holds in r: f(t,r) = true for
// every tuple t (Section 4). It evaluates through the X-partition index;
// loop over Evaluate for the naive ground truth.
func StrongHolds(f fd.FD, r *relation.Relation) (bool, error) {
	c := newChecker(f, r)
	for i := 0; i < r.Len(); i++ {
		v, err := c.evaluate(i)
		if err != nil {
			return false, err
		}
		if v.Truth != tvl.True {
			return false, nil
		}
	}
	return true, nil
}

// WeakHolds reports whether f weakly holds in r: f(t,r) ≠ false for every
// tuple t (Section 4). It evaluates through the X-partition index; loop
// over Evaluate for the naive ground truth.
func WeakHolds(f fd.FD, r *relation.Relation) (bool, error) {
	c := newChecker(f, r)
	for i := 0; i < r.Len(); i++ {
		v, err := c.evaluate(i)
		if err != nil {
			return false, err
		}
		if v.Truth == tvl.False {
			return false, nil
		}
	}
	return true, nil
}

// StrongSatisfied reports whether the set F is strongly satisfied in r.
// Because Armstrong's rules are sound and complete under strong
// satisfiability (Theorem 1), the FDs can be tested independently.
func StrongSatisfied(fds []fd.FD, r *relation.Relation) (bool, error) {
	for _, f := range fds {
		ok, err := StrongHolds(f, r)
		if err != nil || !ok {
			return false, err
		}
	}
	return true, nil
}

// WeakSatisfied reports whether the set F is weakly satisfied in r: some
// completion of r satisfies every FD of F simultaneously. This is the
// set-level notion of Section 6 — strictly stronger than each FD weakly
// holding on its own (the paper's A→B, B→C example). Exponential; the
// chase package provides the polynomial decision procedure (Theorem 4(b)).
func WeakSatisfied(fds []fd.FD, r *relation.Relation) (bool, error) {
	var xy schema.AttrSet
	for _, f := range fds {
		xy = xy.Union(f.X).Union(f.Y)
	}
	for _, t := range r.Tuples() {
		if t.HasNothingOn(xy) {
			return false, nil // a contradiction admits no completion
		}
	}
	comps, err := relation.RelationCompletions(r, xy)
	if err != nil {
		return false, err
	}
	for _, c := range comps {
		all := true
		for _, f := range fds {
			// Index-partitioned classical check: each completion is
			// null-free on every FD's X∪Y, so grouping by X and testing
			// Y-agreement within each group is the O(n) equivalent of the
			// O(n²) pair scan (classicalHolds, kept as ground truth).
			if !classicalHoldsIndexed(f, c) {
				all = false
				break
			}
		}
		if all {
			return true, nil
		}
	}
	return false, nil
}

// EachWeaklyHolds reports whether every FD of F weakly holds *individually*
// — the per-FD notion the Section 6 example contrasts with WeakSatisfied.
func EachWeaklyHolds(fds []fd.FD, r *relation.Relation) (bool, error) {
	for _, f := range fds {
		ok, err := WeakHolds(f, r)
		if err != nil || !ok {
			return false, err
		}
	}
	return true, nil
}

// Report evaluates every (FD, tuple) pair and returns the verdict matrix;
// handy for the CLI and the examples. Evaluation runs through the indexed
// engine, sequentially and in deterministic order; CheckAll is the
// concurrent batch variant.
func Report(fds []fd.FD, r *relation.Relation) ([][]Verdict, error) {
	out := make([][]Verdict, len(fds))
	for i, f := range fds {
		c := newChecker(f, r)
		out[i] = make([]Verdict, r.Len())
		for j := 0; j < r.Len(); j++ {
			v, err := c.evaluate(j)
			if err != nil {
				return nil, err
			}
			out[i][j] = v
		}
	}
	return out, nil
}

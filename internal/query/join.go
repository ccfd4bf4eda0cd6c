// join.go makes decomposed schemas queryable: a selection over the
// fragments of a lossless-join decomposition answers exactly like the
// same selection over the recombined universal instance.
//
// Two recombination routes, chosen by the fragments' contents:
//
//   - Null-free fragments take the classical route: a hash natural join
//     (bucketed on the shared attributes, so each step costs hash
//     probes instead of the oracle's nested loop) with per-fragment
//     predicate pushdown — a top-level ∧-conjunct whose attributes fall
//     inside one component pre-filters that fragment before the join.
//     Pushdown is sound here because null-free cells make the conjunct
//     two-valued: a row on which it is false can only extend to joined
//     tuples on which the whole conjunction is false. The differential
//     oracle is normalize.NaturalJoin + the naive scan.
//
//   - Fragments with nulls (or nothing) take the paper's route: pad to
//     the universal scheme with fresh nulls (normalize.PadToUniversal)
//     and chase with the FDs (Section 6's extended system), then select
//     over the chased instance. No pushdown happens before the chase —
//     a substitution can turn a conjunct's false into true, so
//     pre-filtering fragments would be unsound; Sure/Maybe semantics
//     are preserved because the selection runs over the materialized
//     least fixpoint. The oracle is the same pipeline on the naive
//     chase engine and the naive scan.
//
// Either way the decomposition must be lossless under the FDs — checked
// up front through normalize.Lossless (the internal/tableau chase) —
// because joining a lossy decomposition can manufacture tuples the
// original instance never had.
package query

import (
	"fmt"
	"strings"

	"fdnull/internal/chase"
	"fdnull/internal/fd"
	"fdnull/internal/normalize"
	"fdnull/internal/relation"
	"fdnull/internal/schema"
	"fdnull/internal/tvl"
	"fdnull/internal/value"
)

// Joined is the outcome of a selection over a decomposed schema.
type Joined struct {
	// Rel is the recombined universal instance; the answer's tuple
	// indices refer to it.
	Rel *relation.Relation
	// Res is the selection answer over Rel.
	Res Result
	// Chased reports that the null-aware route ran (PadToUniversal +
	// extended chase) instead of the classical natural join.
	Chased bool
}

// SelectJoined evaluates p over the natural join of the fragments of a
// lossless decomposition of universal, without requiring the caller to
// materialize the join first. components[i] lists the universal
// attributes of fragments[i] in the fragment's column order.
func SelectJoined(universal *schema.Scheme, fds []fd.FD, fragments []*relation.Relation, components []schema.AttrSet, p Pred, opts Options) (*Joined, error) {
	if len(fragments) == 0 {
		return nil, fmt.Errorf("query: nothing to join")
	}
	if len(fragments) != len(components) {
		return nil, fmt.Errorf("query: %d fragments but %d components", len(fragments), len(components))
	}
	var covered schema.AttrSet
	for i, f := range fragments {
		if f.Scheme().Arity() != components[i].Len() {
			return nil, fmt.Errorf("query: fragment %d arity %d does not match component size %d",
				i, f.Scheme().Arity(), components[i].Len())
		}
		covered = covered.Union(components[i])
	}
	if rest := universal.All().Diff(covered); !rest.Empty() {
		return nil, fmt.Errorf("query: components do not cover attribute %s",
			universal.AttrName(rest.Attrs()[0]))
	}
	lossless, err := normalize.Lossless(universal.All(), components, fds)
	if err != nil {
		return nil, err
	}
	if !lossless {
		return nil, fmt.Errorf("query: decomposition is not lossless under the FDs; joined answers would be unsound")
	}
	nullFree := true
	for _, f := range fragments {
		if f.HasNulls() || f.HasNothing() {
			nullFree = false
			break
		}
	}
	if nullFree {
		rel, err := hashJoin(universal, fragments, components, p)
		if err != nil {
			return nil, err
		}
		return &Joined{Rel: rel, Res: SelectWith(rel, p, opts)}, nil
	}
	padded, err := normalize.PadToUniversal(universal, fragments, components)
	if err != nil {
		return nil, err
	}
	res, err := chase.Run(padded, fds, chase.Options{})
	if err != nil {
		return nil, err
	}
	if !res.Consistent {
		return nil, fmt.Errorf("query: fragments are inconsistent with the FDs (the padded chase derived nothing)")
	}
	return &Joined{Rel: res.Relation, Res: SelectWith(res.Relation, p, opts), Chased: true}, nil
}

// hashJoin is the null-free natural join: fragments are joined left to
// right, each step bucketing the next fragment's rows by their
// projection on the attributes shared with the tuples joined so far.
// Row visit order matches normalize.NaturalJoin's nested loop with the
// non-matching combinations skipped, and duplicates collapse to their
// first occurrence — the same set semantics.
func hashJoin(universal *schema.Scheme, fragments []*relation.Relation, components []schema.AttrSet, p Pred) (*relation.Relation, error) {
	arity := universal.Arity()
	pushable := pushdownConjuncts(p)
	current := [][]string{make([]string, arity)}
	var covered schema.AttrSet
	var keyBuf strings.Builder
	for fi, frag := range fragments {
		comp := components[fi]
		cols := comp.Attrs()
		shared := covered.Intersect(comp).Attrs()
		colOf := make(map[schema.Attr]int, len(cols))
		for ci, a := range cols {
			colOf[a] = ci
		}
		buckets := make(map[string][]relation.Tuple, frag.Len())
		for ti := 0; ti < frag.Len(); ti++ {
			row := frag.Tuple(ti)
			if !pushdownKeeps(universal, pushable, comp, cols, row) {
				continue
			}
			keyBuf.Reset()
			for _, a := range shared {
				writeJoinKeyPart(&keyBuf, row[colOf[a]].Const())
			}
			k := keyBuf.String()
			buckets[k] = append(buckets[k], row)
		}
		var next [][]string
		for _, base := range current {
			keyBuf.Reset()
			for _, a := range shared {
				writeJoinKeyPart(&keyBuf, base[a])
			}
			for _, row := range buckets[keyBuf.String()] {
				merged := make([]string, arity)
				copy(merged, base)
				for ci, a := range cols {
					merged[a] = row[ci].Const()
				}
				next = append(next, merged)
			}
		}
		current = next
		covered = covered.Union(comp)
	}
	out := relation.New(universal)
	seen := make(map[string]bool, len(current))
	for _, cells := range current {
		keyBuf.Reset()
		for _, c := range cells {
			writeJoinKeyPart(&keyBuf, c)
		}
		k := keyBuf.String()
		if seen[k] {
			continue
		}
		seen[k] = true
		t := make(relation.Tuple, arity)
		for i, c := range cells {
			t[i] = value.NewConst(c)
		}
		out.InsertUnchecked(t)
	}
	return out, nil
}

// writeJoinKeyPart length-prefixes one constant so distinct projections
// can never collide (the relation.Index group-key encoding).
func writeJoinKeyPart(b *strings.Builder, c string) {
	fmt.Fprintf(b, "%d:%s", len(c), c)
}

// pushdownConjuncts returns the top-level ∧-conjuncts of p whose
// attribute sets are known, paired with those sets. Conjuncts from
// outside the package have unknown attribute sets and are never pushed.
type pushConjunct struct {
	pred  Pred
	attrs schema.AttrSet
}

func pushdownConjuncts(p Pred) []pushConjunct {
	var out []pushConjunct
	for _, leaf := range conjuncts(p, nil) {
		if attrs, ok := predAttrs(leaf); ok {
			out = append(out, pushConjunct{pred: leaf, attrs: attrs})
		}
	}
	return out
}

// predAttrs returns the attributes p references, with ok = false for
// predicate shapes the package cannot see into.
func predAttrs(p Pred) (schema.AttrSet, bool) {
	switch q := p.(type) {
	case Eq:
		return schema.NewAttrSet(q.Attr), true
	case In:
		return schema.NewAttrSet(q.Attr), true
	case EqAttr:
		return schema.NewAttrSet(q.A, q.B), true
	case Not:
		return predAttrs(q.P)
	case And:
		pa, ok := predAttrs(q.P)
		if !ok {
			return 0, false
		}
		qa, ok := predAttrs(q.Q)
		if !ok {
			return 0, false
		}
		return pa.Union(qa), true
	case Or:
		pa, ok := predAttrs(q.P)
		if !ok {
			return 0, false
		}
		qa, ok := predAttrs(q.Q)
		if !ok {
			return 0, false
		}
		return pa.Union(qa), true
	}
	return 0, false
}

// pushdownKeeps evaluates the pushable conjuncts that fall inside comp
// on one null-free fragment row, dropping the row when any is false —
// every joined tuple extending the row agrees with it on comp, so the
// conjunct (two-valued on constants) stays false and falsifies the
// whole conjunction.
func pushdownKeeps(universal *schema.Scheme, pushable []pushConjunct, comp schema.AttrSet, cols []schema.Attr, row relation.Tuple) bool {
	if len(pushable) == 0 {
		return true
	}
	var expanded relation.Tuple
	for _, pc := range pushable {
		if !pc.attrs.SubsetOf(comp) {
			continue
		}
		if expanded == nil {
			// Cells outside the component get fresh, pairwise-distinct
			// marks; the conjunct only reads its own (constant) attrs, so
			// they exist purely to make the tuple well-formed.
			expanded = make(relation.Tuple, universal.Arity())
			for i := range expanded {
				expanded[i] = value.NewNull(i + 1)
			}
			for ci, a := range cols {
				expanded[a] = row[ci]
			}
		}
		if evalRaw(universal, expanded, pc.pred) == tvl.False {
			return false
		}
	}
	return true
}

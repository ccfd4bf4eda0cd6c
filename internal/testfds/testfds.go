// Package testfds implements the paper's TEST-FDs algorithm (Figure 3) and
// the two null-comparison conventions of Theorems 2 and 3.
//
// TEST-FDs scans a relation once per FD and answers yes/no. The same scan
// decides two different questions depending on the convention plugged in:
//
//   - Strong convention (Theorem 2): an equality comparison involving a
//     null is positive, and an inequality comparison involving a null is
//     positive unless both sides are nulls of the same equivalence class.
//     TEST-FDs then answers yes iff F is *strongly* satisfied in r.
//   - Weak convention (Theorem 3): an inequality comparison involving a
//     null is negative, and an equality comparison involving a null is
//     negative unless both sides are nulls of the same equivalence class.
//     On a *minimally incomplete* instance (see the chase package),
//     TEST-FDs answers yes iff F is *weakly* satisfied in r.
//
// Equivalence classes of nulls are carried by the null marks: two null
// cells with the same mark belong to the same class. The chase writes its
// NEC classes back as shared canonical marks, so its output feeds directly
// into the weak-convention test.
//
// Three implementations are provided, matching the paper's complexity
// discussion: a sort-based scan (O(|F|·n·log n)), a bucketed one on the
// relation's shared X-partition index (hash buckets built in O(n·|X|) once
// per relation and X, then O(n·|Y|) per FD: the "Additional Assumptions"
// paragraph's linear grouping, and the deciders' path), and the footnote's
// unsorted pairwise variant (O(|F|·n²)). Under the strong convention a
// null's X-value unifies with *every* X-value, which defeats grouping (the
// footnote); the sorted and bucketed scans therefore compare the tuples
// with nulls in X pairwise.
package testfds

import (
	"fmt"
	"slices"
	"sort"

	"fdnull/internal/fd"
	"fdnull/internal/relation"
	"fdnull/internal/schema"
	"fdnull/internal/value"
)

// Convention selects the null-comparison rules.
type Convention int

const (
	// Strong is Theorem 2's convention: nulls compare equal to anything
	// and unequal to anything except a same-class null.
	Strong Convention = iota
	// Weak is Theorem 3's convention: nulls compare unequal to anything
	// and equal only to a same-class null.
	Weak
)

func (c Convention) String() string {
	if c == Strong {
		return "strong"
	}
	return "weak"
}

// Algorithm selects the implementation.
type Algorithm int

const (
	// Sorted is Figure 3: sort on X, scan groups. O(|F|·n·log n).
	Sorted Algorithm = iota
	// Bucket takes Figure 3's groups from the cached X-partition index
	// (relation.IndexOn): O(n·|X|) once per relation and X, then O(n·|Y|)
	// per FD (Figure 3's "Additional Assumptions").
	Bucket
	// Pairwise is the footnote's unsorted variant, O(|F|·n²).
	Pairwise
)

func (a Algorithm) String() string {
	switch a {
	case Sorted:
		return "sorted"
	case Bucket:
		return "bucket"
	default:
		return "pairwise"
	}
}

// Violation is the witness returned on a no answer: the FD and the two
// tuples whose comparisons were both positive.
type Violation struct {
	FD     fd.FD
	T1, T2 int
}

func (v Violation) String() string {
	return fmt.Sprintf("FD violated by tuples %d and %d", v.T1, v.T2)
}

// eq is the convention's equality comparison for one attribute value pair.
func eq(conv Convention, a, b value.V) bool {
	an, bn := a.IsNull(), b.IsNull()
	switch {
	case an && bn:
		// Both conventions equate same-class nulls; the weak convention
		// equates nothing else, the strong convention everything.
		if conv == Strong {
			return true
		}
		return a.Mark() == b.Mark()
	case an || bn:
		return conv == Strong
	default:
		// nothing cells compare like distinct constants: a contradiction
		// is not equal to anything, including itself.
		if a.IsNothing() || b.IsNothing() {
			return false
		}
		return a.Const() == b.Const()
	}
}

// neq is the convention's inequality comparison. Note it is NOT the
// negation of eq: under the strong convention a null is both "possibly
// equal" and "possibly unequal" to a constant.
func neq(conv Convention, a, b value.V) bool {
	an, bn := a.IsNull(), b.IsNull()
	switch {
	case an && bn:
		if conv == Strong {
			return a.Mark() != b.Mark()
		}
		return false
	case an || bn:
		return conv == Strong
	default:
		if a.IsNothing() || b.IsNothing() {
			return true
		}
		return a.Const() != b.Const()
	}
}

func eqOn(conv Convention, t, u relation.Tuple, attrs []schema.Attr) bool {
	for _, a := range attrs {
		if !eq(conv, t[a], u[a]) {
			return false
		}
	}
	return true
}

func neqOn(conv Convention, t, u relation.Tuple, attrs []schema.Attr) bool {
	for _, a := range attrs {
		if neq(conv, t[a], u[a]) {
			return true
		}
	}
	return false
}

// PairViolates reports whether the tuple pair (t, u) witnesses a violation
// of X → Y under the convention: the X-comparison is positive (the tuples
// possibly/definitely agree on X, per the convention) and the Y-comparison
// is positive (they possibly/definitely disagree on Y). It is the per-pair
// core of every TEST-FDs scan, exported for engines that find candidate
// pairs by other means (the partition engine's null sweeps).
func PairViolates(conv Convention, t, u relation.Tuple, x, y schema.AttrSet) bool {
	return eqOn(conv, t, u, x.Attrs()) && neqOn(conv, t, u, y.Attrs())
}

// Check runs TEST-FDs on r for the whole FD set under the given convention
// and algorithm. It answers (true, nil) for yes, or (false, witness) with
// the first violating pair found for the first violated FD: under Sorted
// the first offending group in X-order, under Bucket the first in the
// index's group order, under Pairwise the first pair in row order (Sorted
// and Bucket sweep the tuples their groups leave out last). The witness
// satisfies PairViolates, except for the weak nothing gate's one tuple.
// Bucket leaves the X-partition index of each FD's X cached on r, as
// eval.CheckAll does. Under the Weak convention the answer decides weak
// satisfiability only on minimally incomplete instances (Theorem 3);
// compose with the chase for arbitrary instances.
func Check(r *relation.Relation, fds []fd.FD, conv Convention, algo Algorithm) (bool, *Violation) {
	if conv == Weak {
		// A `nothing` cell records an unavoidable conflict (Theorem 4(b)):
		// no completion exists, so the instance cannot be weakly
		// satisfiable. The witness carries T1 == T2, the poisoned tuple.
		all := r.Scheme().All()
		for i, t := range r.Tuples() {
			if t.HasNothingOn(all) {
				return false, &Violation{T1: i, T2: i}
			}
		}
	}
	for _, f := range fds {
		var v *Violation
		switch algo {
		case Pairwise:
			v = checkPairwise(r, f, conv)
		case Sorted:
			v = checkSorted(r, f, conv)
		case Bucket:
			v = checkBucket(r, f, conv)
		}
		if v != nil {
			return false, v
		}
	}
	return true, nil
}

// checkPairwise is the footnote variant: every tuple against every other.
func checkPairwise(r *relation.Relation, f fd.FD, conv Convention) *Violation {
	xAttrs, yAttrs := f.X.Attrs(), f.Y.Attrs()
	ts := r.Tuples()
	for i := range ts {
		for j := i + 1; j < len(ts); j++ {
			if eqOn(conv, ts[i], ts[j], xAttrs) && neqOn(conv, ts[i], ts[j], yAttrs) {
				return &Violation{FD: f, T1: i, T2: j}
			}
		}
	}
	return nil
}

// checkSorted is Figure 3: sort the relation on X and scan groups of
// convention-equal X-values, comparing Y-values against the group's first
// tuple. Under the strong convention, tuples with a null in X unify with
// every X-group and are handled by a pairwise sweep (the paper's footnote
// observation that such values defeat sorting).
func checkSorted(r *relation.Relation, f fd.FD, conv Convention) *Violation {
	xAttrs, yAttrs := f.X.Attrs(), f.Y.Attrs()
	ts := r.Tuples()
	idx := make([]int, 0, len(ts))
	var withNullX []int
	for i, t := range ts {
		if conv == Strong && t.HasNullOn(f.X) {
			withNullX = append(withNullX, i)
			continue
		}
		idx = append(idx, i)
	}
	if v := scanSorted(f, conv, ts, idx, xAttrs, yAttrs); v != nil {
		return v
	}
	return sweepNullX(f, ts, xAttrs, yAttrs, withNullX)
}

// checkBucket is Figure 3 on hash buckets: the constant groups of r's
// cached X-partition index are the X-classes of all-constant X-values
// under either convention. Of the rows the index sets aside, under the
// strong convention each one with a null on X — the null sidecar, and the
// nothing-sidecar rows that also carry one — is swept against all rows (a
// nothing-only X matches nothing else); under the weak one Check's gate
// has emptied the nothing sidecar and a null matches only a same-mark
// null, so Figure 3 runs on the null sidecar alone.
func checkBucket(r *relation.Relation, f fd.FD, conv Convention) *Violation {
	xAttrs, yAttrs := f.X.Attrs(), f.Y.Attrs()
	ts, ix := r.Tuples(), r.IndexOn(f.X)
	var v *Violation
	ix.ForEachGroup(func(rows []int) bool {
		v = groupViolation(f, conv, ts, rows, 0, len(rows), yAttrs)
		return v == nil
	})
	switch {
	case v != nil:
		return v
	case conv == Weak:
		return scanSorted(f, Weak, ts, slices.Clone(ix.NullRows()), xAttrs, yAttrs)
	}
	return sweepNullX(f, ts, xAttrs, yAttrs, ix.NullRows(), ix.NothingRows())
}

// scanSorted sorts idx on X and scans its groups of convention-equal
// X-values. Under the weak convention null marks are distinct sort keys,
// so same-class nulls land adjacent — exactly the paper's "they appear
// together in the sorted relation". Group membership may be judged against
// the group's first tuple (convention equality on X is transitive within
// the sorted tuples), but the Y side may not: see groupViolation.
func scanSorted(f fd.FD, conv Convention, ts []relation.Tuple, idx []int, xAttrs, yAttrs []schema.Attr) *Violation {
	sort.Slice(idx, func(a, b int) bool {
		return lessOn(ts[idx[a]], ts[idx[b]], xAttrs)
	})
	for g := 0; g < len(idx); {
		h := g + 1
		for h < len(idx) && eqOn(conv, ts[idx[g]], ts[idx[h]], xAttrs) {
			h++
		}
		if v := groupViolation(f, conv, ts, idx, g, h, yAttrs); v != nil {
			return v
		}
		g = h
	}
	return nil
}

// sweepNullX is the strong convention's pairwise sweep: a listed row with
// a null on X matches every tuple on X, so it is compared with all of
// them. Listed rows without a null on X are skipped.
func sweepNullX(f fd.FD, ts []relation.Tuple, xAttrs, yAttrs []schema.Attr, lists ...[]int) *Violation {
	for _, rows := range lists {
		for _, i := range rows {
			if !ts[i].HasNullOn(f.X) {
				continue
			}
			for j := range ts {
				if j != i && eqOn(Strong, ts[i], ts[j], xAttrs) && neqOn(Strong, ts[i], ts[j], yAttrs) {
					return &Violation{FD: f, T1: min(i, j), T2: max(i, j)}
				}
			}
		}
	}
	return nil
}

// groupViolation searches one group of X-agreeing tuples — idx[g:h], or
// tuples g…h−1 directly when idx is nil — for a pair whose Y-comparison
// is positive.
//
// Under the strong convention comparing every member against the group's
// first tuple suffices: a member not-unequal to a constant is that same
// constant, and one not-unequal to a null is a same-mark null, so
// not-unequal-to-first is transitive. Under the weak convention it is
// not — weak inequality is not the complement of weak equality, so a
// leading null Y-cell (neither equal nor unequal to anything) would
// shield two conflicting constants behind it. The weak scan therefore
// tracks, per Y-attribute, the first constant (and first `nothing`) seen
// across the whole group: a definite conflict is two distinct constants,
// a constant against a nothing, or two nothings.
func groupViolation(f fd.FD, conv Convention, ts []relation.Tuple, idx []int, g, h int, yAttrs []schema.Attr) *Violation {
	if h-g < 2 {
		return nil
	}
	row := func(k int) int {
		if idx == nil {
			return k
		}
		return idx[k]
	}
	if conv == Strong {
		r0 := row(g)
		for k := g + 1; k < h; k++ {
			if j := row(k); neqOn(Strong, ts[r0], ts[j], yAttrs) {
				return &Violation{FD: f, T1: r0, T2: j}
			}
		}
		return nil
	}
	for _, a := range yAttrs {
		constRow, nothingRow := -1, -1
		for k := g; k < h; k++ {
			j := row(k)
			v := ts[j][a]
			switch {
			case v.IsConst():
				switch {
				case nothingRow >= 0:
					return &Violation{FD: f, T1: nothingRow, T2: j}
				case constRow >= 0 && ts[constRow][a].Const() != v.Const():
					return &Violation{FD: f, T1: constRow, T2: j}
				case constRow < 0:
					constRow = j
				}
			case v.IsNothing():
				if constRow >= 0 {
					return &Violation{FD: f, T1: constRow, T2: j}
				}
				if nothingRow >= 0 {
					return &Violation{FD: f, T1: nothingRow, T2: j}
				}
				nothingRow = j
			}
		}
	}
	return nil
}

// lessOn is the representation order used for sorting: constants in
// lexicographic order first, then nulls by mark ("null values have the
// lowest precedence and are always distinct unless they belong to the same
// equivalence class"), then nothing.
func lessOn(t, u relation.Tuple, attrs []schema.Attr) bool {
	for _, a := range attrs {
		if c := value.Compare(t[a], u[a]); c != 0 {
			return c < 0
		}
	}
	return false
}

// CheckPresorted is the "Additional Assumptions" linear path: one FD, the
// relation already sorted on f.X (e.g. BCNF with one key). It scans
// adjacent tuples only and therefore requires the input order to group
// convention-equal X-values (as produced by sorting with lessOn).
func CheckPresorted(r *relation.Relation, f fd.FD, conv Convention) (bool, *Violation) {
	xAttrs, yAttrs := f.X.Attrs(), f.Y.Attrs()
	ts := r.Tuples()
	for g := 0; g < len(ts); {
		h := g + 1
		for h < len(ts) && eqOn(conv, ts[g], ts[h], xAttrs) {
			h++
		}
		if v := groupViolation(f, conv, ts, nil, g, h, yAttrs); v != nil {
			return false, v
		}
		g = h
	}
	return true, nil
}

// StrongSatisfied decides strong satisfiability of F in r (Theorem 2).
func StrongSatisfied(r *relation.Relation, fds []fd.FD) (bool, *Violation) {
	return Check(r, fds, Strong, Bucket)
}

// WeakSatisfiedMinimallyIncomplete decides weak satisfiability of F in a
// minimally incomplete r (Theorem 3). The caller is responsible for the
// minimality precondition; compose with chase.Run otherwise.
func WeakSatisfiedMinimallyIncomplete(r *relation.Relation, fds []fd.FD) (bool, *Violation) {
	return Check(r, fds, Weak, Bucket)
}

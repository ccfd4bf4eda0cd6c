package chase

// xsub.go implements the X-side null-substitution rules of Section 4 —
// the two domain-dependent conditions under which a null *on the
// left-hand side* of an FD has exactly one consistent substitution:
//
//	(1) All completions of t[X] appear in r, t[Y] is not null, and there
//	    exists exactly one completion t'[X] with t'[Y] = t[Y]. The null
//	    may be substituted with the corresponding value.
//	(2) All completions of t[X] appear in r except one, t[Y] is not null,
//	    and every tuple t' whose X-value completes t[X] has a non-null
//	    t'[Y] distinct from t[Y]. The null may be substituted with the
//	    missing domain value.
//
// The paper notes both conditions "are not easy to test" and "seem
// unlikely to occur", and recommends leaving the database incomplete
// instead; they are provided here as the optional extension the paper
// sketches, separate from the Definition 2 NS-rules. Following the
// paper's one-null-at-a-time case analysis, a rule fires only for tuples
// with exactly one null on X and none on Y.

import (
	"fmt"
	"slices"

	"fdnull/internal/fd"
	"fdnull/internal/relation"
	"fdnull/internal/schema"
	"fdnull/internal/value"
)

// XSubstitution records one application of an X-side rule.
type XSubstitution struct {
	FD        fd.FD
	Tuple     int
	Attr      schema.Attr
	Value     string
	Condition int // 1 or 2, the Section 4 condition that fired
}

func (x XSubstitution) String() string {
	return fmt.Sprintf("tuple %d attr %d := %q (condition %d)", x.Tuple, x.Attr, x.Value, x.Condition)
}

// ApplyXSubstitutions applies the Section 4 X-side rules once per
// (FD, tuple) pair, left to right, and returns the rewritten instance
// together with the substitutions performed. The input is not modified.
// Iterate to fixpoint by calling again until no substitutions are
// reported (each call substitutes constants only, so the process
// terminates after at most #nulls rounds).
func ApplyXSubstitutions(r *relation.Relation, fds []fd.FD) (*relation.Relation, []XSubstitution, error) {
	out := r.Clone()
	var subs []XSubstitution
	for _, f := range fds {
		for ti := 0; ti < out.Len(); ti++ {
			sub, ok, err := xRuleFor(out, f, ti)
			if err != nil {
				return nil, nil, err
			}
			if ok {
				out.SetCell(sub.Tuple, sub.Attr, value.NewConst(sub.Value))
				subs = append(subs, sub)
			}
		}
	}
	return out, subs, nil
}

// xRuleFor checks conditions (1) and (2) for one FD and one tuple.
func xRuleFor(r *relation.Relation, f fd.FD, ti int) (XSubstitution, bool, error) {
	s := r.Scheme()
	t := r.Tuple(ti)
	// Exactly one null on X, held by exactly one attribute; no nulls or
	// nothing on Y; remaining X attributes constant.
	nulls := t.NullsOn(f.X)
	if len(nulls) != 1 {
		return XSubstitution{}, false, nil
	}
	na := nulls[0]
	if t.HasNullOn(f.Y) || t.HasNothingOn(f.Y) || t.HasNothingOn(f.X) {
		return XSubstitution{}, false, nil
	}
	// The null's mark must not recur elsewhere in the tuple or instance:
	// a shared mark means the substitution would leak beyond this cell,
	// outside the scope of the paper's rule.
	mark := t[na].Mark()
	for tj, u := range r.Tuples() {
		for a, v := range u {
			if v.IsNull() && v.Mark() == mark && !(tj == ti && schema.Attr(a) == na) {
				return XSubstitution{}, false, nil
			}
		}
	}
	dom := s.Domain(na)
	restX := f.X.Remove(na)
	// For each domain value v: does a completion appear, and does it
	// agree with t on Y? Tuples with nulls on X or Y are skipped — the
	// rule's premises speak about appearing completions, which are
	// constant tuples.
	present := make([]bool, dom.Size())
	agree := make([]bool, dom.Size())
	disagreeOK := true // condition (2): every completion disagrees on Y with non-null values
	for tj, u := range r.Tuples() {
		if tj == ti || u.HasNullOn(f.X) || u.HasNothingOn(f.X) || !t.ConstEqOn(u, restX) {
			continue
		}
		vi := slices.Index(dom.Values, u[na].Const())
		if vi < 0 {
			continue
		}
		present[vi] = true
		if u.HasNullOn(f.Y) || u.HasNothingOn(f.Y) {
			disagreeOK = false
		} else if t.ConstEqOn(u, f.Y) {
			agree[vi] = true
		}
	}
	presentCount, agreeCount := 0, 0
	missing, agreeAt := slices.Index(present, false), slices.Index(agree, true)
	for i := range present {
		if present[i] {
			presentCount++
		}
		if agree[i] {
			agreeCount++
		}
	}
	// Condition (1): all completions present, exactly one agreeing.
	if presentCount == dom.Size() && agreeCount == 1 {
		return XSubstitution{FD: f, Tuple: ti, Attr: na,
			Value: dom.Values[agreeAt], Condition: 1}, true, nil
	}
	// Condition (2): all but one present, every present completion
	// disagrees with non-null Y-values.
	if presentCount == dom.Size()-1 && agreeCount == 0 && disagreeOK {
		return XSubstitution{FD: f, Tuple: ti, Attr: na,
			Value: dom.Values[missing], Condition: 2}, true, nil
	}
	return XSubstitution{}, false, nil
}

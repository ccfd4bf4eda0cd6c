// Package value models database values in the presence of incomplete
// information, following Section 2 of Vassiliou (VLDB 1980).
//
// Adding the missing null to a domain of constants turns the domain into a
// flat lattice under the approximation ordering: null carries less
// information than (approximates) every constant, and distinct constants are
// incomparable. The paper's chase extension (Section 6) additionally uses the
// "inconsistent element (the nothing data value)", which is above every
// constant: it records that a cell has been forced to two distinct constants.
//
//	   nothing            (most information / contradiction)
//	  /   |    \
//	c1    c2 ... ck        (the domain constants)
//	  \   |    /
//	    null               (least information)
//
// Nulls are *marked*: each carries an identity so that Null-Equality
// Constraints (Definition 1) can assert that two occurrences denote the same
// unknown constant. Two nulls with different marks are distinct symbols until
// a NEC (maintained externally, e.g. by a union-find in the chase) merges
// them.
package value

import (
	"fmt"
	"strconv"
	"strings"
)

// Kind discriminates the three levels of the value lattice.
type Kind uint8

const (
	// Null is the missing null ⊥: a value that exists but is unknown.
	Null Kind = iota
	// Const is an ordinary domain constant.
	Const
	// Nothing is the inconsistent element introduced by the chase when two
	// distinct constants are forced to be equal (Section 6, Theorem 4).
	Nothing
)

// V is a single database value. The zero V is an unmarked null (mark 0).
type V struct {
	kind Kind
	c    string // constant payload, valid when kind == Const
	mark int    // null identity, valid when kind == Null
}

// NewConst returns the constant value c.
func NewConst(c string) V { return V{kind: Const, c: c} }

// NewNull returns a marked null ⊥mark. Marks only need to be unique within
// one relation instance; the relation package allocates them.
func NewNull(mark int) V { return V{kind: Null, mark: mark} }

// NewNothing returns the inconsistent element.
func NewNothing() V { return V{kind: Nothing} }

// Kind reports which lattice level v occupies.
func (v V) Kind() Kind { return v.kind }

// IsNull reports whether v is a null.
func (v V) IsNull() bool { return v.kind == Null }

// IsConst reports whether v is a domain constant.
func (v V) IsConst() bool { return v.kind == Const }

// IsNothing reports whether v is the inconsistent element.
func (v V) IsNothing() bool { return v.kind == Nothing }

// Const returns the constant payload. It panics on non-constants, which
// would indicate a logic error in the caller: the truth of a comparison
// against a null is a three-valued question that must not be collapsed
// silently.
func (v V) Const() string {
	if v.kind != Const {
		panic("value: Const() on " + v.GoString())
	}
	return v.c
}

// Mark returns the null's identity mark. It panics on non-nulls.
func (v V) Mark() int {
	if v.kind != Null {
		panic("value: Mark() on " + v.GoString())
	}
	return v.mark
}

// WithMark returns a copy of the null with a different mark. Panics on
// non-nulls.
func (v V) WithMark(mark int) V {
	if v.kind != Null {
		panic("value: WithMark() on " + v.GoString())
	}
	return V{kind: Null, mark: mark}
}

// Identical reports syntactic identity: equal constants, nulls with the same
// mark, or both nothing. It is *not* the semantic equality of the paper —
// semantic equality of nulls is governed by conventions and NECs.
func (v V) Identical(w V) bool { return v == w }

// SameConst reports that both values are constants with equal payloads.
func (v V) SameConst(w V) bool {
	return v.kind == Const && w.kind == Const && v.c == w.c
}

// Approximates reports v ⊑ w in the approximation ordering: null ⊑ anything,
// x ⊑ x, and anything ⊑ nothing.
func (v V) Approximates(w V) bool {
	switch {
	case v.kind == Null:
		// A marked null approximates any value, and a null with the same
		// mark. (Distinct marks are still both "no information".)
		return true
	case w.kind == Nothing:
		return true
	default:
		return v == w
	}
}

// Lub returns the least upper bound of v and w in the approximation
// ordering. Two distinct constants join to nothing; null is the identity.
// Marked nulls with distinct marks join to a null carrying v's mark — the
// caller (the chase) is responsible for recording the induced NEC.
func (v V) Lub(w V) V {
	switch {
	case v.kind == Nothing || w.kind == Nothing:
		return NewNothing()
	case v.kind == Null:
		return w
	case w.kind == Null:
		return v
	case v.c == w.c:
		return v
	default:
		return NewNothing()
	}
}

// String renders the value in the paper's figure notation: constants print
// verbatim, nulls print "-" (or "-k" when marked with k > 0 to keep marks
// visible), nothing prints "!".
func (v V) String() string {
	if v.kind == Const {
		return v.c
	}
	var buf [24]byte // "-" and 19 digits at most: the rendering stays on the stack
	return string(v.AppendString(buf[:0]))
}

// AppendString appends the String rendering to dst and returns the
// extended buffer — the form for callers rendering many cells into one
// buffer (the daemon's query reply), which pay no string per cell.
func (v V) AppendString(dst []byte) []byte {
	switch v.kind {
	case Const:
		return append(dst, v.c...)
	case Null:
		dst = append(dst, '-')
		if v.mark == 0 {
			return dst
		}
		return strconv.AppendInt(dst, int64(v.mark), 10)
	default:
		return append(dst, '!')
	}
}

// Parse reads one cell in the notation String writes — the one
// definition the row parser and the daemon's match cells share: "!" is
// the inconsistent element, "-k" the marked null ⊥k (a minus, then
// decimal digits only: no sign, no base prefix, no trailing bytes, and
// k ≥ 1: ⊥0 prints as a bare "-"), any other text a constant. Bare "-" is
// refused here; whether it draws a fresh null is the caller's rule.
func Parse(cell string) (V, error) {
	switch {
	case cell == "!":
		return NewNothing(), nil
	case !strings.HasPrefix(cell, "-"):
		return NewConst(cell), nil
	}
	k, err := strconv.Atoi(cell[1:])
	if err != nil || k < 1 || strings.TrimLeft(cell[1:], "0123456789") != "" {
		return V{}, fmt.Errorf("value: bad null cell %q", cell)
	}
	return NewNull(k), nil
}

// GoString renders an unambiguous debugging form.
func (v V) GoString() string {
	switch v.kind {
	case Const:
		return fmt.Sprintf("value.NewConst(%q)", v.c)
	case Null:
		return fmt.Sprintf("value.NewNull(%d)", v.mark)
	default:
		return "value.NewNothing()"
	}
}

// Compare imposes a total order used for deterministic sorting and
// canonical printing: constants first in lexicographic order, then nulls by
// mark, then nothing. It is a *representation* order, not a semantic one;
// TEST-FDs layers its conventions on top (Theorems 2 and 3).
func Compare(a, b V) int {
	ra, rb := rank(a), rank(b)
	if ra != rb {
		if ra < rb {
			return -1
		}
		return 1
	}
	switch a.kind {
	case Const:
		return strings.Compare(a.c, b.c)
	case Null:
		switch {
		case a.mark < b.mark:
			return -1
		case a.mark > b.mark:
			return 1
		}
	}
	return 0
}

func rank(v V) int {
	switch v.kind {
	case Const:
		return 0
	case Null:
		return 1
	default:
		return 2
	}
}

// List is a convenience for building constant slices in tests and examples.
func List(cs ...string) []V {
	out := make([]V, len(cs))
	for i, c := range cs {
		out[i] = NewConst(c)
	}
	return out
}

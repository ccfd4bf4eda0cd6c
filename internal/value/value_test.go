package value

import (
	"sort"
	"testing"
	"testing/quick"
)

func TestKinds(t *testing.T) {
	c := NewConst("a")
	n := NewNull(3)
	x := NewNothing()
	if !c.IsConst() || c.IsNull() || c.IsNothing() || c.Kind() != Const {
		t.Error("const kind predicates wrong")
	}
	if !n.IsNull() || n.IsConst() || n.IsNothing() || n.Kind() != Null {
		t.Error("null kind predicates wrong")
	}
	if !x.IsNothing() || x.IsConst() || x.IsNull() || x.Kind() != Nothing {
		t.Error("nothing kind predicates wrong")
	}
}

func TestZeroValueIsNull(t *testing.T) {
	var v V
	if !v.IsNull() || v.Mark() != 0 {
		t.Error("zero V should be the unmarked null")
	}
}

func TestConstAccessor(t *testing.T) {
	if NewConst("x").Const() != "x" {
		t.Error("Const payload lost")
	}
	defer func() {
		if recover() == nil {
			t.Error("Const() on null should panic")
		}
	}()
	_ = NewNull(1).Const()
}

func TestMarkAccessor(t *testing.T) {
	if NewNull(7).Mark() != 7 {
		t.Error("Mark lost")
	}
	defer func() {
		if recover() == nil {
			t.Error("Mark() on const should panic")
		}
	}()
	_ = NewConst("a").Mark()
}

func TestWithMark(t *testing.T) {
	n := NewNull(1).WithMark(9)
	if n.Mark() != 9 {
		t.Error("WithMark did not change mark")
	}
	defer func() {
		if recover() == nil {
			t.Error("WithMark on const should panic")
		}
	}()
	_ = NewConst("a").WithMark(1)
}

func TestIdentical(t *testing.T) {
	if !NewConst("a").Identical(NewConst("a")) {
		t.Error("equal constants should be identical")
	}
	if NewConst("a").Identical(NewConst("b")) {
		t.Error("distinct constants are not identical")
	}
	if NewNull(1).Identical(NewNull(2)) {
		t.Error("differently marked nulls are not identical")
	}
	if !NewNull(2).Identical(NewNull(2)) {
		t.Error("same-marked nulls are identical")
	}
	if !NewNothing().Identical(NewNothing()) {
		t.Error("nothing is identical to itself")
	}
}

func TestSameConst(t *testing.T) {
	if !NewConst("a").SameConst(NewConst("a")) {
		t.Error("SameConst positive case")
	}
	if NewConst("a").SameConst(NewNull(0)) || NewNull(0).SameConst(NewNull(0)) {
		t.Error("SameConst must be false when either side is not a constant")
	}
}

func TestApproximates(t *testing.T) {
	n, c, d, x := NewNull(1), NewConst("a"), NewConst("b"), NewNothing()
	cases := []struct {
		a, b V
		want bool
	}{
		{n, c, true}, {n, x, true}, {n, n, true},
		{c, c, true}, {c, d, false}, {c, x, true},
		{x, x, true}, {x, c, false}, {c, n, false},
	}
	for _, cse := range cases {
		if got := cse.a.Approximates(cse.b); got != cse.want {
			t.Errorf("%v ⊑ %v = %v, want %v", cse.a, cse.b, got, cse.want)
		}
	}
}

func TestLub(t *testing.T) {
	n, c, d, x := NewNull(1), NewConst("a"), NewConst("b"), NewNothing()
	if c.Lub(d) != x {
		t.Error("lub of distinct constants must be nothing")
	}
	if c.Lub(c) != c {
		t.Error("lub of equal constants is the constant")
	}
	if n.Lub(c) != c || c.Lub(n) != c {
		t.Error("null is the identity of lub")
	}
	if x.Lub(c) != x || c.Lub(x) != x {
		t.Error("nothing absorbs")
	}
	if got := n.Lub(NewNull(2)); !got.IsNull() {
		t.Errorf("lub of two nulls should remain a null, got %v", got)
	}
}

func TestLubLatticeProperties(t *testing.T) {
	vals := []V{NewNull(0), NewNull(1), NewConst("a"), NewConst("b"), NewNothing()}
	for _, a := range vals {
		for _, b := range vals {
			l := a.Lub(b)
			if !a.Approximates(l) && !(a.IsNull() && b.IsNull()) {
				t.Errorf("a=%v must approximate lub(a,b)=%v", a, l)
			}
			// Commutativity modulo null marks.
			r := b.Lub(a)
			if l.Kind() != r.Kind() || (l.IsConst() && l.Const() != r.Const()) {
				t.Errorf("lub not commutative: %v vs %v", l, r)
			}
		}
	}
}

func TestString(t *testing.T) {
	cases := []struct {
		v    V
		want string
	}{
		{NewConst("e1"), "e1"},
		{NewNull(0), "-"},
		{NewNull(4), "-4"},
		{NewNothing(), "!"},
	}
	for _, c := range cases {
		if got := c.v.String(); got != c.want {
			t.Errorf("String(%#v) = %q, want %q", c.v, got, c.want)
		}
	}
}

func TestGoString(t *testing.T) {
	if NewConst("a").GoString() != `value.NewConst("a")` {
		t.Error("GoString const")
	}
	if NewNull(2).GoString() != "value.NewNull(2)" {
		t.Error("GoString null")
	}
	if NewNothing().GoString() != "value.NewNothing()" {
		t.Error("GoString nothing")
	}
}

func TestCompareOrder(t *testing.T) {
	vs := []V{NewNothing(), NewNull(2), NewConst("b"), NewNull(1), NewConst("a")}
	sort.Slice(vs, func(i, j int) bool { return Compare(vs[i], vs[j]) < 0 })
	want := []V{NewConst("a"), NewConst("b"), NewNull(1), NewNull(2), NewNothing()}
	for i := range want {
		if vs[i] != want[i] {
			t.Fatalf("sorted[%d] = %v, want %v", i, vs[i], want[i])
		}
	}
}

func TestCompareProperties(t *testing.T) {
	gen := func(k, m byte, s string) V {
		switch k % 3 {
		case 0:
			return NewConst(s)
		case 1:
			return NewNull(int(m % 8))
		default:
			return NewNothing()
		}
	}
	f := func(k1, m1 byte, s1 string, k2, m2 byte, s2 string) bool {
		a, b := gen(k1, m1, s1), gen(k2, m2, s2)
		// Antisymmetry and reflexivity of the total order.
		if Compare(a, a) != 0 || Compare(b, b) != 0 {
			return false
		}
		return Compare(a, b) == -Compare(b, a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestList(t *testing.T) {
	got := List("x", "y")
	if len(got) != 2 || got[0].Const() != "x" || got[1].Const() != "y" {
		t.Errorf("List mismatch: %v", got)
	}
}

// TestParse pins the one cell definition the row parser, the daemon's
// match cells and fdcheck's op scripts share. The refusals are the
// spellings fmt.Sscanf("-%d") used to let through: trailing bytes stored
// the leading digits' mark, a second sign a negative mark, a base prefix
// mark 0; and mark 0 itself, which String prints as the bare "-".
func TestParse(t *testing.T) {
	for cell, want := range map[string]V{
		"x": NewConst("x"), "": NewConst(""), "a-1": NewConst("a-1"), "!": NewNothing(),
		"-7": NewNull(7), "-007": NewNull(7), "-9223372036854775807": NewNull(1<<63 - 1),
	} {
		if got, err := Parse(cell); err != nil || !got.Identical(want) {
			t.Errorf("Parse(%q) = %#v, %v; want %#v", cell, got, err, want)
		}
	}
	for _, cell := range []string{"-", "-0", "-00", "-5abc", "--5", "-0x10", "-+5", "- 5", "-5 ", "-5\n", "-1_0", "-٣", "-9223372036854775808"} {
		if got, err := Parse(cell); err == nil {
			t.Errorf("Parse(%q) = %#v, want a refusal", cell, got)
		}
	}
}

// TestAppendStringIsString: the two renderings are one, whatever is
// already in the buffer, and what String writes Parse reads back (mark 0
// apart: it prints as the bare "-", which is the caller's to interpret).
func TestAppendStringIsString(t *testing.T) {
	for _, v := range []V{NewConst("a1"), NewConst(""), NewConst("-x"), NewNull(0), NewNull(7), NewNull(1<<63 - 1), NewNull(-5), NewNothing()} {
		if got := string(v.AppendString([]byte("row "))); got != "row "+v.String() {
			t.Errorf("AppendString of %#v = %q, String = %q", v, got, v.String())
		}
		if back, err := Parse(v.String()); err == nil && !back.Identical(v) {
			t.Errorf("%#v prints %q, which parses back as %#v", v, v.String(), back)
		}
	}
	if n := testing.AllocsPerRun(100, func() { _ = NewConst("a1").String() }); n != 0 {
		t.Errorf("String of a constant allocates %v", n)
	}
}

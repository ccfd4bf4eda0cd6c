package relation

import (
	"strings"
	"testing"

	"fdnull/internal/schema"
	"fdnull/internal/value"
)

func abcScheme() *schema.Scheme {
	return schema.Uniform("R", []string{"A", "B", "C"},
		schema.MustDomain("d", "a1", "a2", "a3"))
}

func TestTupleHelpers(t *testing.T) {
	s := abcScheme()
	tu := Tuple{value.NewConst("a1"), value.NewNull(1), value.NewNothing()}
	if !tu.HasNullOn(s.MustSet("A", "B")) || tu.HasNullOn(s.MustSet("A")) {
		t.Error("HasNullOn")
	}
	if !tu.HasNothingOn(s.MustSet("C")) || tu.HasNothingOn(s.MustSet("A", "B")) {
		t.Error("HasNothingOn")
	}
	ns := tu.NullsOn(s.All())
	if len(ns) != 1 || ns[0] != 1 {
		t.Errorf("NullsOn = %v", ns)
	}
}

func TestConstEqIdentical(t *testing.T) {
	s := abcScheme()
	t1 := Tuple{value.NewConst("a1"), value.NewConst("a2"), value.NewNull(1)}
	t2 := Tuple{value.NewConst("a1"), value.NewConst("a2"), value.NewNull(1)}
	t3 := Tuple{value.NewConst("a1"), value.NewNull(2), value.NewNull(1)}
	if !t1.ConstEqOn(t2, s.MustSet("A", "B")) {
		t.Error("ConstEqOn positive")
	}
	if t1.ConstEqOn(t2, s.All()) {
		t.Error("ConstEqOn must reject nulls")
	}
	if t1.ConstEqOn(t3, s.MustSet("A", "B")) {
		t.Error("ConstEqOn null vs const")
	}
	if !t1.IdenticalOn(t2, s.All()) {
		t.Error("IdenticalOn positive (same marks)")
	}
	if t1.IdenticalOn(t3, s.All()) {
		t.Error("IdenticalOn negative")
	}
}

func TestProjectTuple(t *testing.T) {
	s := abcScheme()
	tu := Tuple(value.List("a1", "a2", "a3"))
	p := tu.Project(s.MustSet("A", "C"))
	if len(p) != 2 || p[0].Const() != "a1" || p[1].Const() != "a3" {
		t.Errorf("Project = %v", p)
	}
}

func TestTupleApproximates(t *testing.T) {
	a := Tuple{value.NewNull(1), value.NewConst("a1")}
	b := Tuple(value.List("a2", "a1"))
	if !a.Approximates(b) {
		t.Error("null tuple should approximate constant tuple")
	}
	if b.Approximates(a) {
		t.Error("constants do not approximate nulls")
	}
	if a.Approximates(Tuple{value.NewNull(1)}) {
		t.Error("arity mismatch")
	}
}

func TestTupleString(t *testing.T) {
	tu := Tuple{value.NewConst("x"), value.NewNull(0), value.NewNothing()}
	if got := tu.String(); got != "(x, -, !)" {
		t.Errorf("String = %q", got)
	}
}

func TestInsertValidation(t *testing.T) {
	r := New(abcScheme())
	if err := r.Insert(Tuple(value.List("a1", "a2"))); err == nil {
		t.Error("arity mismatch must error")
	}
	if err := r.Insert(Tuple(value.List("zzz", "a1", "a2"))); err == nil {
		t.Error("out-of-domain constant must error")
	}
	if err := r.Insert(Tuple(value.List("a1", "a2", "a3"))); err != nil {
		t.Errorf("valid insert failed: %v", err)
	}
	if err := r.Insert(Tuple(value.List("a1", "a2", "a3"))); err == nil {
		t.Error("duplicate must error")
	}
	if r.Len() != 1 {
		t.Errorf("Len = %d", r.Len())
	}
}

func TestInsertRowSyntax(t *testing.T) {
	r := New(abcScheme())
	if err := r.InsertRow("a1", "-", "!"); err != nil {
		t.Fatal(err)
	}
	tu := r.Tuple(0)
	if !tu[1].IsNull() || !tu[2].IsNothing() {
		t.Errorf("parsed tuple %v", tu)
	}
	if err := r.InsertRow("a1", "-7", "a2"); err != nil {
		t.Fatal(err)
	}
	if r.Tuple(1)[1].Mark() != 7 {
		t.Error("marked null not parsed")
	}
	// Fresh nulls must not collide with explicit -7.
	if v := r.FreshNull(); v.Mark() <= 7 {
		t.Errorf("fresh mark %d should exceed explicit 7", v.Mark())
	}
	if err := r.InsertRow("a1", "-x", "a2"); err == nil {
		t.Error("bad null syntax must error")
	}
}

// TestParseRowMalformedNullCells: a "-k" cell is a minus and decimal
// digits, nothing else. Each of these used to be stored — "-5abc" as ⊥5,
// "--5" as a null with mark −5, "-0x10" as ⊥0 — and is now refused with
// nothing inserted; the well-formed spellings still parse.
func TestParseRowMalformedNullCells(t *testing.T) {
	r := New(abcScheme())
	for _, cell := range []string{"-0", "-5abc", "--5", "-0x10", "-+5", "- 5", "-5 ", "-99999999999999999999"} {
		if tu, err := r.ParseRow("a1", cell, "a2"); err == nil {
			t.Errorf("ParseRow(%q) = %v, want a refusal", cell, tu)
		} else if !strings.Contains(err.Error(), "bad null cell") {
			t.Errorf("ParseRow(%q): %v, want a bad-null-cell error", cell, err)
		}
		if err := r.InsertRow("a1", cell, "a2"); err == nil || r.Len() != 0 {
			t.Errorf("InsertRow(%q): err %v, %d rows stored", cell, err, r.Len())
		}
	}
	for cell, mark := range map[string]int{"-5": 5, "-005": 5} {
		tu, err := r.ParseRow("a1", cell, "a2")
		if err != nil || !tu[1].IsNull() || tu[1].Mark() != mark {
			t.Errorf("ParseRow(%q) = %v, %v; want mark %d", cell, tu, err, mark)
		}
	}
}

// TestTuplePredicatesDoNotAllocate: the four set-restricted predicates
// walk the attribute bitset in place. They sit under every FD check and
// under fireGroup on the write path; ranging over set.Attrs() cost each
// call a slice.
func TestTuplePredicatesDoNotAllocate(t *testing.T) {
	s := abcScheme()
	tu := Tuple{value.NewConst("a1"), value.NewConst("a2"), value.NewConst("a3")}
	u := tu.Clone()
	set := s.All()
	var sink bool
	for name, fn := range map[string]func(){
		"HasNullOn":    func() { sink = tu.HasNullOn(set) },
		"HasNothingOn": func() { sink = tu.HasNothingOn(set) },
		"ConstEqOn":    func() { sink = tu.ConstEqOn(u, set) },
		"IdenticalOn":  func() { sink = tu.IdenticalOn(u, set) },
	} {
		if n := testing.AllocsPerRun(100, fn); n != 0 {
			t.Errorf("%s allocates %v per call, want 0", name, n)
		}
	}
	_ = sink
}

func TestFreshNullUnique(t *testing.T) {
	r := New(abcScheme())
	a, b := r.FreshNull(), r.FreshNull()
	if a.Mark() == b.Mark() {
		t.Error("fresh nulls must have distinct marks")
	}
}

func TestDeleteSetCellClone(t *testing.T) {
	r := MustFromRows(abcScheme(),
		[]string{"a1", "a2", "a3"},
		[]string{"a2", "-", "a1"})
	c := r.Clone()
	c.SetCell(0, 0, value.NewConst("a3"))
	if r.Tuple(0)[0].Const() != "a1" {
		t.Error("Clone must deep-copy")
	}
	r.Delete(0)
	if r.Len() != 1 || !r.Tuple(0)[1].IsNull() {
		t.Error("Delete removed wrong tuple")
	}
}

func TestHasNullsNothingCounts(t *testing.T) {
	r := MustFromRows(abcScheme(), []string{"a1", "a2", "a3"})
	if r.HasNulls() || r.HasNothing() || r.NullCount() != 0 {
		t.Error("complete instance misreported")
	}
	r.MustInsertRow("a1", "-", "-")
	if !r.HasNulls() || r.NullCount() != 2 {
		t.Error("null counting wrong")
	}
	r.MustInsertRow("a2", "!", "a3")
	if !r.HasNothing() {
		t.Error("HasNothing missed")
	}
}

func TestRelationProject(t *testing.T) {
	s := abcScheme()
	r := MustFromRows(s,
		[]string{"a1", "a2", "a3"},
		[]string{"a1", "a2", "a1"},
		[]string{"a2", "a3", "a1"})
	p, err := r.Project("P", s.MustSet("A", "B"))
	if err != nil {
		t.Fatal(err)
	}
	if p.Len() != 2 {
		t.Errorf("projection should collapse duplicates; Len = %d", p.Len())
	}
	if p.Scheme().Arity() != 2 {
		t.Error("projected arity")
	}
	if _, err := r.Project("P", 0); err == nil {
		t.Error("empty projection must error")
	}
}

func TestEqual(t *testing.T) {
	s := abcScheme()
	a := MustFromRows(s, []string{"a1", "a2", "a3"}, []string{"a2", "-1", "a1"})
	b := MustFromRows(s, []string{"a2", "-1", "a1"}, []string{"a1", "a2", "a3"})
	if !Equal(a, b) {
		t.Error("Equal should ignore order")
	}
	c := MustFromRows(s, []string{"a1", "a2", "a3"}, []string{"a2", "-2", "a1"})
	if Equal(a, c) {
		t.Error("different null marks are not identical")
	}
	d := MustFromRows(s, []string{"a1", "a2", "a3"})
	if Equal(a, d) {
		t.Error("different lengths")
	}
}

func TestStringTable(t *testing.T) {
	r := MustFromRows(abcScheme(), []string{"a1", "-", "a3"})
	out := r.String()
	if !strings.Contains(out, "A") || !strings.Contains(out, "a1") || !strings.Contains(out, "-") {
		t.Errorf("table rendering missing pieces:\n%s", out)
	}
}

func TestTupleCompletionsNoNulls(t *testing.T) {
	s := abcScheme()
	tu := Tuple(value.List("a1", "a2", "a3"))
	cs, err := TupleCompletions(s, tu, s.All())
	if err != nil || len(cs) != 1 {
		t.Fatalf("completions of complete tuple: %v, %v", cs, err)
	}
	if !cs[0].IdenticalOn(tu, s.All()) {
		t.Error("completion should equal original")
	}
}

func TestTupleCompletionsSingleNull(t *testing.T) {
	s := abcScheme()
	tu := Tuple{value.NewConst("a1"), value.NewNull(1), value.NewConst("a3")}
	cs, err := TupleCompletions(s, tu, s.All())
	if err != nil {
		t.Fatal(err)
	}
	if len(cs) != 3 {
		t.Fatalf("|AP| = %d, want 3 (domain size)", len(cs))
	}
	seen := map[string]bool{}
	for _, c := range cs {
		if c[0].Const() != "a1" || c[2].Const() != "a3" {
			t.Error("non-null cells must be preserved")
		}
		seen[c[1].Const()] = true
	}
	if len(seen) != 3 {
		t.Error("each domain value should appear once")
	}
	if CompletionCount(s, tu, s.All()) != 3 {
		t.Error("CompletionCount mismatch")
	}
}

func TestTupleCompletionsSharedMark(t *testing.T) {
	s := abcScheme()
	// Two nulls with the same mark must co-vary: 3 completions, not 9.
	tu := Tuple{value.NewNull(5), value.NewNull(5), value.NewConst("a1")}
	cs, err := TupleCompletions(s, tu, s.All())
	if err != nil {
		t.Fatal(err)
	}
	if len(cs) != 3 {
		t.Fatalf("|AP| = %d, want 3 for shared mark", len(cs))
	}
	for _, c := range cs {
		if c[0].Const() != c[1].Const() {
			t.Error("shared-mark nulls must receive equal substitutions")
		}
	}
	// Distinct marks vary independently: 9.
	tu2 := Tuple{value.NewNull(1), value.NewNull(2), value.NewConst("a1")}
	cs2, _ := TupleCompletions(s, tu2, s.All())
	if len(cs2) != 9 {
		t.Fatalf("|AP| = %d, want 9 for distinct marks", len(cs2))
	}
	if CompletionCount(s, tu2, s.All()) != 9 {
		t.Error("CompletionCount mismatch for distinct marks")
	}
}

func TestTupleCompletionsRestrictedSet(t *testing.T) {
	s := abcScheme()
	tu := Tuple{value.NewNull(1), value.NewNull(2), value.NewConst("a1")}
	cs, err := TupleCompletions(s, tu, s.MustSet("A"))
	if err != nil {
		t.Fatal(err)
	}
	if len(cs) != 3 {
		t.Fatalf("|AP(t,A)| = %d, want 3", len(cs))
	}
	for _, c := range cs {
		if !c[1].IsNull() {
			t.Error("nulls outside the set must be preserved")
		}
	}
}

func TestTupleCompletionsNothing(t *testing.T) {
	s := abcScheme()
	tu := Tuple{value.NewNothing(), value.NewConst("a1"), value.NewConst("a2")}
	cs, err := TupleCompletions(s, tu, s.All())
	if err != nil || cs != nil {
		t.Error("nothing admits no completions")
	}
	if CompletionCount(s, tu, s.All()) != 0 {
		t.Error("CompletionCount of contradiction should be 0")
	}
}

func TestRelationCompletions(t *testing.T) {
	s := abcScheme()
	r := MustFromRows(s,
		[]string{"a1", "-1", "a3"},
		[]string{"a2", "-1", "a1"}) // shared mark across tuples
	rs, err := RelationCompletions(r, s.All())
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 3 {
		t.Fatalf("|AP(r)| = %d, want 3 (shared mark co-varies)", len(rs))
	}
	for _, rr := range rs {
		if rr.Tuple(0)[1].Const() != rr.Tuple(1)[1].Const() {
			t.Error("shared mark must co-vary across tuples")
		}
	}
}

func TestRelationCompletionsIndependent(t *testing.T) {
	s := abcScheme()
	r := MustFromRows(s,
		[]string{"a1", "-1", "a3"},
		[]string{"a2", "-2", "a1"})
	rs, err := RelationCompletions(r, s.All())
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 9 {
		t.Fatalf("|AP(r)| = %d, want 9", len(rs))
	}
}

func TestRelationCompletionsNothing(t *testing.T) {
	s := abcScheme()
	r := MustFromRows(s, []string{"a1", "!", "a3"})
	rs, err := RelationCompletions(r, s.All())
	if err != nil || rs != nil {
		t.Error("relation with nothing admits no completions")
	}
}

func TestCompletionLimit(t *testing.T) {
	dom := schema.IntDomain("big", "v", 64)
	s := schema.Uniform("W", []string{"A", "B", "C", "D"}, dom)
	r := New(s)
	row := make([]string, 4)
	for i := range row {
		row[i] = "-"
	}
	for i := 0; i < 2; i++ {
		r.MustInsertRow(row...) // 8 independent nulls over 64 values = 64^8
	}
	if _, err := RelationCompletions(r, s.All()); err != ErrTooManyCompletions {
		t.Errorf("expected ErrTooManyCompletions, got %v", err)
	}
	tu := r.Tuple(0)
	if _, err := TupleCompletions(s, Tuple{tu[0], tu[1], tu[2], tu[3]}, s.All()); err != nil {
		// 64^4 = 16M > 1M limit
		if err != ErrTooManyCompletions {
			t.Errorf("expected ErrTooManyCompletions, got %v", err)
		}
	} else {
		t.Error("expected tuple completion limit to trigger")
	}
}

func TestFromRowsError(t *testing.T) {
	if _, err := FromRows(abcScheme(), []string{"bad-value", "a1", "a2"}); err == nil {
		t.Error("FromRows must propagate domain errors")
	}
}

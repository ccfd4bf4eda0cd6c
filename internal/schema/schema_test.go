package schema

import (
	"fmt"
	"testing"
	"testing/quick"
)

func abDomain() *Domain { return MustDomain("d", "a", "b") }

func testScheme(t *testing.T) *Scheme {
	t.Helper()
	return Uniform("R", []string{"A", "B", "C"}, abDomain())
}

func TestAttrSetBasics(t *testing.T) {
	s := NewAttrSet(0, 2)
	if !s.Has(0) || s.Has(1) || !s.Has(2) {
		t.Error("membership wrong")
	}
	if s.Len() != 2 {
		t.Errorf("Len = %d, want 2", s.Len())
	}
	s = s.Add(1)
	if s.Len() != 3 {
		t.Error("Add failed")
	}
	s = s.Remove(0)
	if s.Has(0) || s.Len() != 2 {
		t.Error("Remove failed")
	}
	if s.Has(-1) || s.Has(64) {
		t.Error("out-of-range Has must be false")
	}
}

func TestAttrSetAlgebra(t *testing.T) {
	a := NewAttrSet(0, 1)
	b := NewAttrSet(1, 2)
	if a.Union(b) != NewAttrSet(0, 1, 2) {
		t.Error("Union")
	}
	if a.Intersect(b) != NewAttrSet(1) {
		t.Error("Intersect")
	}
	if a.Diff(b) != NewAttrSet(0) {
		t.Error("Diff")
	}
	if !NewAttrSet(1).SubsetOf(a) || a.SubsetOf(b) {
		t.Error("SubsetOf")
	}
	if !NewAttrSet(0).Disjoint(NewAttrSet(1)) || a.Disjoint(b) {
		t.Error("Disjoint")
	}
	if !AttrSet(0).Empty() || a.Empty() {
		t.Error("Empty")
	}
}

func TestAttrSetAttrsForEach(t *testing.T) {
	s := NewAttrSet(3, 0, 5)
	got := s.Attrs()
	want := []Attr{0, 3, 5}
	if len(got) != 3 {
		t.Fatalf("Attrs len %d", len(got))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("Attrs[%d] = %d, want %d", i, got[i], want[i])
		}
	}
	var visited []Attr
	s.ForEach(func(a Attr) { visited = append(visited, a) })
	if len(visited) != 3 || visited[0] != 0 || visited[2] != 5 {
		t.Errorf("ForEach visited %v", visited)
	}
}

func TestAttrSetAddPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Add(64) should panic")
		}
	}()
	NewAttrSet().Add(64)
}

func TestAttrSetProperties(t *testing.T) {
	f := func(x, y uint64) bool {
		a, b := AttrSet(x), AttrSet(y)
		return a.Union(b).Len() == a.Len()+b.Len()-a.Intersect(b).Len() &&
			a.Diff(b).SubsetOf(a) &&
			a.Intersect(b).SubsetOf(a.Union(b))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDomain(t *testing.T) {
	d := MustDomain("ms", "married", "single")
	if d.Size() != 2 {
		t.Error("Size")
	}
	if !d.Contains("married") || d.Contains("divorced") {
		t.Error("Contains")
	}
	if _, err := NewDomain("bad"); err == nil {
		t.Error("empty domain must error")
	}
	if _, err := NewDomain("dup", "x", "x"); err == nil {
		t.Error("duplicate values must error")
	}
}

// TestDomainRefusesValuesTheCellNotationCannotWrite: "!" and text starting
// with "-" read back as the inconsistent element, a null or a malformed
// null cell, so a domain holding them would store a constant that a row,
// a relio file or a WAL record could not spell. Neither constructor takes
// one; a "-" or "!" inside a value is fine.
func TestDomainRefusesValuesTheCellNotationCannotWrite(t *testing.T) {
	for _, bad := range []string{"!", "-", "-1", "-007", "-x"} {
		if _, err := NewDomain("d", "a", bad); err == nil {
			t.Errorf("NewDomain accepted %q", bad)
		}
	}
	if _, err := NewDomain("d", "-1", "!", "a"); err == nil {
		t.Error(`NewDomain("d", "-1", "!", "a") accepted`)
	}
	if _, err := NewIntDomain("d", "-", 3); err == nil {
		t.Error(`NewIntDomain with prefix "-" accepted`)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error(`IntDomain with prefix "-" did not panic`)
			}
		}()
		IntDomain("d", "-", 3)
	}()
	if d, err := NewDomain("d", "a-1", "!a", "x!"); err != nil || !d.Contains("a-1") {
		t.Errorf(`NewDomain("d", "a-1", "!a", "x!") = %v, %v`, d, err)
	}
	if _, err := NewIntDomain("d", "!", 3); err != nil {
		t.Errorf(`NewIntDomain with prefix "!": %v`, err)
	}
}

func TestIntDomain(t *testing.T) {
	d := IntDomain("n", "v", 3)
	if d.Size() != 3 || d.Values[0] != "v1" || d.Values[2] != "v3" {
		t.Errorf("IntDomain values %v", d.Values)
	}
	for i, v := range IntDomain("n", "ab", 1234).Values {
		if want := fmt.Sprintf("ab%d", i+1); v != want {
			t.Fatalf("IntDomain value %d = %q, want %q", i, v, want)
		}
	}
}

func TestSchemeBasics(t *testing.T) {
	s := testScheme(t)
	if s.Name() != "R" || s.Arity() != 3 {
		t.Error("Name/Arity")
	}
	if s.AttrName(1) != "B" {
		t.Error("AttrName")
	}
	if s.Domain(0).Name != "d" {
		t.Error("Domain")
	}
	a, ok := s.Attr("C")
	if !ok || a != 2 {
		t.Error("Attr lookup")
	}
	if _, ok := s.Attr("Z"); ok {
		t.Error("Attr should miss")
	}
	if s.MustAttr("A") != 0 {
		t.Error("MustAttr")
	}
	if s.All() != NewAttrSet(0, 1, 2) {
		t.Error("All")
	}
	if s.String() != "R(A, B, C)" {
		t.Errorf("String = %q", s.String())
	}
}

func TestSchemeErrors(t *testing.T) {
	d := abDomain()
	if _, err := New("R", nil, nil); err == nil {
		t.Error("empty scheme must error")
	}
	if _, err := New("R", []string{"A", "A"}, []*Domain{d, d}); err == nil {
		t.Error("duplicate attribute must error")
	}
	if _, err := New("R", []string{"A"}, []*Domain{}); err == nil {
		t.Error("domain count mismatch must error")
	}
	if _, err := New("R", []string{""}, []*Domain{d}); err == nil {
		t.Error("empty attribute name must error")
	}
	if _, err := New("R", []string{"A"}, []*Domain{nil}); err == nil {
		t.Error("nil domain must error")
	}
	names := make([]string, 65)
	doms := make([]*Domain, 65)
	for i := range names {
		names[i] = string(rune('A'+i%26)) + string(rune('0'+i/26))
		doms[i] = d
	}
	if _, err := New("R", names, doms); err == nil {
		t.Error("over-wide scheme must error")
	}
}

func TestMustAttrPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustAttr on unknown should panic")
		}
	}()
	testScheme(t).MustAttr("Z")
}

func TestSetAndParseSet(t *testing.T) {
	s := testScheme(t)
	set, err := s.Set("A", "C")
	if err != nil || set != NewAttrSet(0, 2) {
		t.Errorf("Set = %v, err %v", set, err)
	}
	if _, err := s.Set("A", "Z"); err == nil {
		t.Error("unknown attribute must error")
	}
	set, err = s.ParseSet("A, B")
	if err != nil || set != NewAttrSet(0, 1) {
		t.Errorf("ParseSet = %v, err %v", set, err)
	}
	set, err = s.ParseSet("B C")
	if err != nil || set != NewAttrSet(1, 2) {
		t.Errorf("ParseSet space-separated = %v, err %v", set, err)
	}
	if s.MustSet("B") != NewAttrSet(1) {
		t.Error("MustSet")
	}
}

func TestFormatSet(t *testing.T) {
	s := testScheme(t)
	if got := s.FormatSet(NewAttrSet(0, 2)); got != "A,C" {
		t.Errorf("FormatSet = %q", got)
	}
	if got := s.FormatSet(NewAttrSet()); got != "" {
		t.Errorf("FormatSet(∅) = %q", got)
	}
}

func TestProject(t *testing.T) {
	s := testScheme(t)
	p, mapping, err := s.Project("S", NewAttrSet(0, 2))
	if err != nil {
		t.Fatal(err)
	}
	if p.Arity() != 2 || p.AttrName(0) != "A" || p.AttrName(1) != "C" {
		t.Errorf("projection scheme %v", p)
	}
	if mapping[0] != 0 || mapping[2] != 1 {
		t.Errorf("mapping %v", mapping)
	}
	if _, _, err := s.Project("S", NewAttrSet()); err == nil {
		t.Error("empty projection must error")
	}
	if _, _, err := s.Project("S", NewAttrSet(7)); err == nil {
		t.Error("projection onto missing attribute must error")
	}
}

func TestUniform(t *testing.T) {
	s := Uniform("U", []string{"X", "Y"}, abDomain())
	if s.Domain(0) != s.Domain(1) {
		t.Error("Uniform should share the domain")
	}
}

package store

import (
	"errors"
	"strings"
	"testing"

	"fdnull/internal/relation"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	st := employeeStore(engIncremental)
	rows := [][]string{
		{"e1", "s1", "d1", "ct1"},
		{"e2", "-", "d1", "-"},  // chased: CT forced to ct1
		{"e3", "s2", "d2", "-"}, // stays null
		{"e4", "-", "d2", "-"},
	}
	for _, r := range rows {
		if err := st.InsertRow(r...); err != nil {
			t.Fatal(err)
		}
	}
	var buf strings.Builder
	if err := st.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatalf("load failed: %v\n%s", err, buf.String())
	}
	if !relation.Equal(st.Snapshot(), loaded.Snapshot()) {
		t.Errorf("round trip changed the instance:\n%s\nvs\n%s",
			st.Snapshot(), loaded.Snapshot())
	}
	if len(loaded.FDs()) != 2 {
		t.Error("FDs lost in round trip")
	}
	// NEC classes survive: e3 and e4 share d2, so their CT nulls must
	// still be linked after the round trip.
	ct := loaded.Scheme().MustAttr("CT")
	a, b := loaded.Tuple(2)[ct], loaded.Tuple(3)[ct]
	if !a.IsNull() || !b.IsNull() || a.Mark() != b.Mark() {
		t.Errorf("NEC lost in round trip: %v vs %v", a, b)
	}
	// The loaded store keeps enforcing the dependencies.
	if err := loaded.InsertRow("e1", "s2", "d1", "ct1"); err == nil {
		t.Error("loaded store must reject contradictions")
	}
}

func TestLoadRejectsInconsistentFile(t *testing.T) {
	bad := `
domain d = x y
scheme R(A:d, B:d)
fd A -> B
row x x
row x y
`
	_, err := Load(strings.NewReader(bad))
	var ierr *InconsistencyError
	if !errors.As(err, &ierr) {
		t.Fatalf("expected InconsistencyError, got %v", err)
	}
}

func TestLoadRejectsBadSyntax(t *testing.T) {
	if _, err := Load(strings.NewReader("junk")); err == nil {
		t.Error("syntax errors must propagate")
	}
}

func TestStoreString(t *testing.T) {
	st := employeeStore(engIncremental)
	_ = st.InsertRow("e1", "-", "d1", "ct1")
	got := st.String()
	if !strings.Contains(got, "1 tuples") || !strings.Contains(got, "2 FDs") {
		t.Errorf("String = %q", got)
	}
}

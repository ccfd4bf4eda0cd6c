package relio

import (
	"strings"
	"testing"

	"fdnull/internal/relation"
)

const sample = `
# the Figure 1.1 employee scheme
domain emp = e1 e2 e3
domain sal = s1 s2
domain dep = d1 d2
domain ct  = full part

scheme R(E#:emp, SL:sal, D#:dep, CT:ct)
fd E# -> SL,D#
fd D# -> CT

row e1 s1 d1 full
row e2 -  d1 -
row e3 -3 d2 part   # marked null
`

func TestParseSample(t *testing.T) {
	f, err := ParseString(sample)
	if err != nil {
		t.Fatal(err)
	}
	if f.Scheme.Name() != "R" || f.Scheme.Arity() != 4 {
		t.Error("scheme parsed wrong")
	}
	if len(f.FDs) != 2 {
		t.Fatalf("FDs = %d", len(f.FDs))
	}
	if f.Relation.Len() != 3 {
		t.Fatalf("rows = %d", f.Relation.Len())
	}
	if !f.Relation.Tuple(1)[1].IsNull() || !f.Relation.Tuple(1)[3].IsNull() {
		t.Error("fresh nulls not parsed")
	}
	if f.Relation.Tuple(2)[1].Mark() != 3 {
		t.Error("marked null not parsed")
	}
	if f.Scheme.Domain(3).Size() != 2 {
		t.Error("ct domain")
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"scheme R(A)\n",  // missing domain spec
		"junk\n",         // unknown directive
		"domain d\n",     // missing '='
		"scheme R A:d\n", // missing parens
		"domain d = x\nscheme R(A:nope)\nrow x\n",     // undeclared domain
		"domain d = x\nscheme R(A:d)\nfd A -> B\n",    // unknown attribute in FD
		"domain d = x\nscheme R(A:d)\nrow y\n",        // out-of-domain value
		"domain d = x x\nscheme R(A:d)\n",             // duplicate domain value
		"domain d = -1 x\nscheme R(A:d)\nrow x\n",     // domain value that reads as a null
		"domain d = ! x\nscheme R(A:d)\nrow x\n",      // domain value that reads as nothing
		"row x\n",                                     // no scheme at all
		"domain d = x\nscheme R(A:d, A:d)\nrow x x\n", // duplicate attr
	}
	for i, c := range cases {
		if _, err := ParseString(c); err == nil {
			t.Errorf("case %d should error:\n%s", i, c)
		}
	}
}

// TestParseRefusesMalformedNullCells: a file row reads its cells by the
// row parser's strict "-k" definition, and the refusal names the row.
func TestParseRefusesMalformedNullCells(t *testing.T) {
	for _, cell := range []string{"-5abc", "--5", "-0x10"} {
		_, err := ParseString("domain d = x y\nscheme R(A:d, B:d)\nrow x -5\nrow y " + cell + "\n")
		if err == nil || !strings.Contains(err.Error(), "row 2") || !strings.Contains(err.Error(), "bad null cell") {
			t.Errorf("a row with cell %q: %v, want row 2 refused as a bad null cell", cell, err)
		}
	}
}

func TestRoundTrip(t *testing.T) {
	f, err := ParseString(sample)
	if err != nil {
		t.Fatal(err)
	}
	out, err := WriteString(f)
	if err != nil {
		t.Fatal(err)
	}
	f2, err := ParseString(out)
	if err != nil {
		t.Fatalf("re-parse failed: %v\n%s", err, out)
	}
	if f2.Scheme.Name() != f.Scheme.Name() || f2.Scheme.Arity() != f.Scheme.Arity() {
		t.Error("scheme changed in round trip")
	}
	if len(f2.FDs) != len(f.FDs) {
		t.Error("FDs changed in round trip")
	}
	if !relation.Equal(f.Relation, f2.Relation) {
		t.Errorf("relation changed in round trip:\n%s\nvs\n%s", f.Relation, f2.Relation)
	}
}

func TestWriteContainsDirectives(t *testing.T) {
	f, _ := ParseString(sample)
	out, _ := WriteString(f)
	for _, want := range []string{"domain emp", "scheme R(", "fd ", "row e1 s1 d1 full"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestCommentsAndBlankLines(t *testing.T) {
	f, err := ParseString("# leading comment\n\ndomain d = x\n# mid\nscheme R(A:d)\nrow x # trailing\n")
	if err != nil {
		t.Fatal(err)
	}
	if f.Relation.Len() != 1 {
		t.Error("comment handling broke rows")
	}
}

func TestNextMarkDirective(t *testing.T) {
	// The directive is a floor: it can only raise the allocator above
	// what the rows imply.
	f, err := ParseString("domain d = x\nscheme R(A:d)\nrow -3\nnextmark 9\n")
	if err != nil {
		t.Fatal(err)
	}
	if f.NextMark != 9 || f.Relation.NextMark() != 9 {
		t.Fatalf("nextmark floor not applied: file %d, relation %d", f.NextMark, f.Relation.NextMark())
	}
	// A directive below the row-implied watermark is ignored.
	f, err = ParseString("domain d = x\nscheme R(A:d)\nrow -7\nnextmark 2\n")
	if err != nil {
		t.Fatal(err)
	}
	if f.Relation.NextMark() != 8 {
		t.Fatalf("row-implied watermark lost: %d", f.Relation.NextMark())
	}
	// Round trip: Write emits the directive, Parse restores it exactly.
	f.NextMark = f.Relation.NextMark()
	out, err := WriteString(f)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "nextmark 8") {
		t.Fatalf("directive not written:\n%s", out)
	}
	again, err := ParseString(out)
	if err != nil {
		t.Fatal(err)
	}
	if again.NextMark != 8 {
		t.Fatalf("round trip changed watermark: %d", again.NextMark)
	}
	for _, bad := range []string{
		"domain d = x\nscheme R(A:d)\nnextmark 0\n",
		"domain d = x\nscheme R(A:d)\nnextmark -4\n",
		"domain d = x\nscheme R(A:d)\nnextmark many\n",
		"domain d = x\nscheme R(A:d)\nnextmark\n",
	} {
		if _, err := ParseString(bad); err == nil {
			t.Errorf("should reject %q", bad)
		}
	}
}

func TestParseAcceptsStoreReachableInstances(t *testing.T) {
	// The chase substitutes a marked null everywhere it occurs, so a
	// written instance can carry one column's constant in another column
	// and can hold two syntactically equal rows. Parse must load both
	// back verbatim — positions index an instance.
	f, err := ParseString(
		"domain emp = e1 e2\ndomain ct = full part\nscheme R(E:emp, C:ct)\n" +
			"row e1 full\nrow e1 full\nrow full e2\n")
	if err != nil {
		t.Fatal(err)
	}
	if f.Relation.Len() != 3 {
		t.Fatalf("rows = %d", f.Relation.Len())
	}
	if f.Relation.Tuple(2)[0].Const() != "full" {
		t.Error("cross-column constant not preserved")
	}
	// A constant in no domain at all is still a typo, not a reachable
	// state, and a wrong-width row never round-trips.
	for _, bad := range []string{
		"domain emp = e1\nscheme R(E:emp)\nrow nope\n",
		"domain emp = e1\nscheme R(E:emp)\nrow e1 e1\n",
	} {
		if _, err := ParseString(bad); err == nil {
			t.Errorf("should reject %q", bad)
		}
	}
}

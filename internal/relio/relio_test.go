package relio

import (
	"errors"
	"fmt"
	"io"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"fdnull/internal/relation"
	"fdnull/internal/schema"
	"fdnull/internal/workload"
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

// employeesText renders the employee workload at n rows, a fifth of its
// salary and contract cells null, in the file format.
func employeesText(t testing.TB, n int) string {
	s, fds, r := workload.Employees(n, n/20, 0.2, 7)
	text, err := WriteString(&File{Scheme: s, FDs: fds, Relation: r, NextMark: r.NextMark()})
	if err != nil {
		t.Fatal(err)
	}
	return text
}

// TestParseAllocsIndependentOfRows: Parse allocates per directive and
// per domain, not per row — the rows share one slab, every constant is
// its domain's string and a prefix1 … prefixN list loads as a computed
// domain, so going from 200 to 2,000 rows adds fewer than 0.01
// allocations per row, and a 2,500-row file takes at most 150.
func TestParseAllocsIndependentOfRows(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	parse := func(n int) float64 {
		text := employeesText(t, n)
		return testing.AllocsPerRun(10, func() {
			if _, err := ParseString(text); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large, full := parse(200), parse(2000), parse(2500)
	t.Logf("Parse allocates %.0f at n=200, %.0f at n=2000, %.0f at n=2500", small, large, full)
	if (large-small)/1800 >= 0.01 {
		t.Errorf("Parse allocates %v at n=200 and %v at n=2000: %.3f per added row, want < 0.01", small, large, (large-small)/1800)
	}
	if full > 150 {
		t.Errorf("Parse of a 2,500-row file allocates %v, want at most 150", full)
	}
}

// TestParseKeepsNoInputBytes: scribbling over the text after Parse
// changes nothing the file renders — names, domain values and cells are
// all copies or the domains' own strings.
func TestParseKeepsNoInputBytes(t *testing.T) {
	for _, text := range []string{sample, employeesText(t, 40),
		"domain d = x y z\ndomain n = a1 a2 a3\nscheme Q(A:d, B:n)\nfd A -> B\nrow x a2\nrow - -4\n"} {
		buf := []byte(text)
		f, err := ParseString(unsafe.String(&buf[0], len(buf)))
		if err != nil {
			t.Fatal(err)
		}
		want, err := WriteString(f)
		if err != nil {
			t.Fatal(err)
		}
		for i := range buf {
			buf[i] = '?'
		}
		if got, _ := WriteString(f); got != want {
			t.Errorf("the parsed file changed with its input text:\n%s\nvs\n%s", got, want)
		}
	}
}

// TestParseLoadsIntDomains: a domain line listing exactly prefix1 …
// prefixN is a computed domain with the same members; any other list is
// a value list.
func TestParseLoadsIntDomains(t *testing.T) {
	for _, c := range []struct {
		list  string
		isInt bool
	}{
		{"e1 e2 e3", true}, {"a11 a12", true}, {"1 2 3", true}, {"x1", true}, {"e01", true},
		{"e2 e1", false}, {"e1 e3", false}, {"x", false}, {"e1 e2 f3", false}, {"e1 e1", false},
		{"e1 e02", false}, {"e1 e2x", false}, {"e1 e2 e3 e4 e5 e6 e7 e8 e9 e10", true},
		{"e1 e2 e3 e4 e5 e6 e7 e8 e9 e010", false}, {"e1 e2 e3 e4 e5 e6 e7 e8 e9 e1:", false},
	} {
		f, err := ParseString("domain d = " + c.list + "\nscheme R(A:d)\n")
		if c.list == "e1 e1" {
			if err == nil {
				t.Errorf("%q: duplicate values accepted", c.list)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%q: %v", c.list, err)
		}
		d := f.Scheme.Domain(0)
		ref := schema.MustDomain("d", strings.Fields(c.list)...)
		// A computed domain prints its prefix where a value list has none.
		if got := fmt.Sprintf("%#v", d) != fmt.Sprintf("%#v", ref); got != c.isInt {
			t.Errorf("%q: loaded as a computed domain %v, want %v", c.list, got, c.isInt)
		}
		for _, v := range append(strings.Fields(c.list), "e", "e0", "e4", "a1", "a13", "0", "4", "x", "x2", "e001") {
			if d.Contains(v) != ref.Contains(v) {
				t.Errorf("%q: Contains(%q) = %v, want %v", c.list, v, d.Contains(v), ref.Contains(v))
			}
		}
	}
}

// TestParseRefusesWhatWouldNotReadBack: a "-0" cell (⊥0 prints as a
// fresh "-") and a domain value or attribute name that Write would print
// after a space, as a comment, are refused with the row or line named.
func TestParseRefusesWhatWouldNotReadBack(t *testing.T) {
	for in, want := range map[string]string{
		"domain d = x\nscheme R(A:d)\nrow x\nrow -0\n":   "row 2",
		"domain d = x\nscheme R(A:d)\nrow -00\n":         "row 1",
		"domain d=#x y\nscheme R(A:d)\n":                 "line 1",
		"domain d = x\nscheme R(A:d,#B:d)\nrow x x\n":    "line 2",
		"domain d = x\nscheme R(A:d, #B:d)\nrow x x\n":   "line 2",
		"domain d = x\nscheme R(A:d, B#:d)\nrow x -0x\n": "row 1",
	} {
		if _, err := ParseString(in); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%q: %v, want an error naming %s", in, err, want)
		}
	}
}

// oddlySpaced holds inputs whose fields are split by white space outside
// ASCII — U+0085, U+00A0, U+1680, U+3000 — around multibyte constants,
// next to bytes that are not white space: a lone continuation byte and a
// truncated rune.
var oddlySpaced = []string{
	"x\u0085y\u00a0é ☃\t z",
	"\u00a0\u0085 é\u00a0\u00a0x \u0085",
	"é\u1680x\u3000☃",
	"a\x85b \xe2x\u00a0\xc2",
	"\u0085",
}

// TestNextFieldIsStringsFields: nextField's ASCII table and its fallback
// to unicode.IsSpace split exactly as strings.Fields does, and a file
// separated that way loads as the same file separated by spaces.
func TestNextFieldIsStringsFields(t *testing.T) {
	for _, in := range oddlySpaced {
		var got []string
		for f, rest := nextField(in); f != ""; f, rest = nextField(rest) {
			got = append(got, f)
		}
		if want := strings.Fields(in); !slices.Equal(got, want) {
			t.Errorf("nextField splits %q into %q, strings.Fields into %q", in, got, want)
		}
	}
	spaced := "domain d = é x ☃\nscheme R(A:d, B:d)\nrow é x\nrow ☃ -\n"
	odd := "domain d =\u00a0é\u0085x\u00a0☃\u0085\nscheme R(A:d, B:d)\nrow é\u0085x\u3000\nrow ☃\u00a0\u00a0-\u0085# comment\n"
	want, err := ParseString(spaced)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ParseString(odd)
	if err != nil {
		t.Fatal(err)
	}
	if w, g := mustWrite(t, want), mustWrite(t, got); w != g {
		t.Errorf("oddly spaced file loads as\n%s\nwant\n%s", g, w)
	}
}

func mustWrite(t *testing.T, f *File) string {
	t.Helper()
	out, err := WriteString(f)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestWriteGolden holds Write's bytes for a file that mixes list domains,
// a non-ASCII value, several FDs, a nextmark, fresh and marked nulls and
// the inconsistent element (the text the per-row formatter wrote).
func TestWriteGolden(t *testing.T) {
	f, err := ParseString("domain emp = e1 e2 e3 e4 e5\ndomain sal = low high s<3> é☃\ndomain dep = d1 d2\ndomain ct = full part\n" +
		"scheme R(E#:emp, SL:sal, D#:dep, CT:ct, BOSS:emp)\nfd E# -> SL,D#\nfd D# -> CT\nfd D#,CT -> BOSS\nnextmark 12\n" +
		"row e1 low d1 full e2\nrow e2 - d1 - -\nrow e3 -3 d2 part -3\nrow e4 é☃ ! - -7\nrow e5 s<3> d2 - e1\n")
	if err != nil {
		t.Fatal(err)
	}
	const want = "domain ct = full part\ndomain dep = d1 d2\ndomain emp = e1 e2 e3 e4 e5\ndomain sal = low high s<3> é☃\n" +
		"scheme R(E#:emp, SL:sal, D#:dep, CT:ct, BOSS:emp)\nfd E# -> D#,SL\nfd D# -> CT\nfd CT,D# -> BOSS\nnextmark 12\n" +
		"row e1 low d1 full e2\nrow e2 -1 d1 -2 -3\nrow e3 -3 d2 part -3\nrow e4 é☃ ! -4 -7\nrow e5 s<3> d2 -8 e1\n"
	if got, err := WriteString(f); err != nil || got != want {
		t.Errorf("Write = %q (%v), want %q", got, err, want)
	}
}

// countingWriter counts the Write calls it gets and their bytes, and
// fails every call from the failAt-th on (0: never).
type countingWriter struct{ calls, bytes, failAt int }

func (w *countingWriter) Write(p []byte) (int, error) {
	w.calls++
	if w.failAt > 0 && w.calls >= w.failAt {
		return 0, errors.New("disk full")
	}
	w.bytes += len(p)
	return len(p), nil
}

// TestWriteInBlocks: Write hands its writer whole blocks — at most
// ⌈bytes / writeBlock⌉ + 1 calls for a 2,500-row file, where it once made
// one per row — allocates the same for 200 rows as for 2,500, and returns
// the error of a write that fails.
func TestWriteInBlocks(t *testing.T) {
	files := map[int]*File{}
	for _, n := range []int{200, 2500} {
		f, err := ParseString(employeesText(t, n))
		if err != nil {
			t.Fatal(err)
		}
		files[n] = f
	}
	var w countingWriter
	if err := Write(&w, files[2500]); err != nil {
		t.Fatal(err)
	}
	if most := (w.bytes+writeBlock-1)/writeBlock + 1; w.calls > most {
		t.Errorf("%d B went out in %d writes, want at most %d", w.bytes, w.calls, most)
	}
	for fail := 1; fail <= w.calls; fail++ {
		if err := Write(&countingWriter{failAt: fail}, files[2500]); err == nil || err.Error() != "disk full" {
			t.Errorf("write %d of %d failed, yet Write returned %v", fail, w.calls, err)
		}
	}
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	allocs := func(n int) float64 {
		return testing.AllocsPerRun(100, func() {
			if err := Write(io.Discard, files[n]); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(200), allocs(2500)
	t.Logf("Write allocates %.0f for 200 rows, %.0f for 2,500 (%d B in %d writes)", small, large, w.bytes, w.calls)
	if large != small {
		t.Errorf("Write allocates %.0f for 200 rows and %.0f for 2,500: it allocates per row", small, large)
	}
}

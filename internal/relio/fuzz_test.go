package relio

import (
	"slices"
	"strings"
	"testing"

	"fdnull/internal/schema"
)

// FuzzParse drives the parser with arbitrary input: it must never panic,
// and whatever it accepts must round-trip through Write and re-Parse to
// the same file: tuple for tuple the same cells and marks, the same
// allocator watermark, and domains that answer Contains and Canonical
// alike for their values and for a few non-members.
func FuzzParse(f *testing.F) {
	f.Add(sample)
	f.Add("domain d = x y\nscheme R(A:d)\nfd A -> A\nrow x\nrow -\nrow -3\n")
	f.Add("scheme R(\n")
	f.Add("domain = \n")
	f.Add("row - ! -0 --1\n")
	f.Add("domain d = x\nscheme R(A#:d, B:d)\nrow x x # comment\n")
	f.Add("domain d = x\nscheme R(A:d)\nrow -2\nnextmark 9\n")
	f.Add("domain d = x\nscheme R(A:d)\nnextmark 0\n")
	f.Add("domain d = x\nscheme R(A:d, B:d, C:d)\nrow -5abc --5 -0x10\n")
	f.Add("domain d = x\nscheme R(A:d, B:d)\nrow -5 -005\n")
	f.Add("domain d = e1 e2 e3\nscheme R(A:d, B:d)\nrow e1 -\nrow e3 e2\n")
	f.Add("domain d = a11 a12\nscheme R(A:d)\nrow a12\n")
	f.Add("domain d = 1 2 3\nscheme R(A:d)\nrow 3\nrow -\n")
	f.Add("domain d = e2 e1\nscheme R(A:d)\nrow e1\n")
	f.Add("domain d = e1 e3\nscheme R(A:d)\nrow e3\n")
	f.Add("domain d = e01\nscheme R(A:d)\nrow e01\n")
	f.Add("domain d = v\nscheme R(A:d)\nrow v\n")
	f.Add("domain d=#00000\nscheme 0(0:d)")
	f.Add("domain d = x\nscheme R(A:d,#B:d)\n")
	f.Add("domain d=00\nscheme 0(0:d)\nrow -0")
	f.Add("domain d =\u00a0é\u0085x\u00a0☃\nscheme R(A:d, B:d)\nrow é\u0085x\u3000\nrow ☃\u00a0-\u0085# c\n")
	for _, row := range oddlySpaced {
		f.Add("domain d = x y z é ☃ a\x85b \xe2x \xc2\nscheme R(A:d, B:d, C:d)\nrow " + row + "\n")
	}
	f.Fuzz(func(t *testing.T, input string) {
		parsed, err := Parse(strings.NewReader(input))
		if err != nil {
			return // rejection is fine; panics are not
		}
		out, err := WriteString(parsed)
		if err != nil {
			t.Fatalf("accepted input failed to render: %v", err)
		}
		again, err := ParseString(out)
		if err != nil {
			t.Fatalf("rendered output failed to re-parse: %v\n%s", err, out)
		}
		if again.Scheme.Arity() != parsed.Scheme.Arity() ||
			again.Relation.Len() != parsed.Relation.Len() ||
			len(again.FDs) != len(parsed.FDs) {
			t.Fatalf("round trip changed shape:\n%s", out)
		}
		if again.Relation.NextMark() != parsed.Relation.NextMark() {
			t.Fatalf("round trip changed the allocator watermark: %d -> %d\n%s",
				parsed.Relation.NextMark(), again.Relation.NextMark(), out)
		}
		for i, tup := range parsed.Relation.Tuples() {
			if u := again.Relation.Tuple(i); !slices.Equal(tup, u) {
				t.Fatalf("round trip changed row %d: %v -> %v\n%s", i, tup, u, out)
			}
		}
		for a := 0; a < parsed.Scheme.Arity(); a++ {
			d, e := parsed.Scheme.Domain(schema.Attr(a)), again.Scheme.Domain(schema.Attr(a))
			probes := append(slices.Clone(d.Values), "", "0", "01", "x", d.Values[0]+"0", d.Values[0]+"1", "-1", "!")
			for _, v := range probes {
				c1, ok1 := d.Canonical(v)
				c2, ok2 := e.Canonical(v)
				if ok1 != ok2 || c1 != c2 || d.Contains(v) != ok1 || e.Contains(v) != ok2 {
					t.Fatalf("round trip changed domain %s on %q: (%q, %v) -> (%q, %v)\n%s", d.Name, v, c1, ok1, c2, ok2, out)
				}
			}
		}
	})
}

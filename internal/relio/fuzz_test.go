package relio

import (
	"strings"
	"testing"
)

// FuzzParse drives the parser with arbitrary input: it must never panic,
// and whatever it accepts must round-trip through Write and re-Parse to
// the same shape.
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
	})
}

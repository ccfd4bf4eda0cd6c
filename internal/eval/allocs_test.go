package eval

import (
	"errors"
	"strconv"
	"testing"

	"fdnull/internal/fd"
	"fdnull/internal/relation"
	"fdnull/internal/schema"
)

// TestEvaluateRefusesBeforeCopying: when the rest of the instance has
// more completions than CompletionLimit, Evaluate refuses before it copies
// a row — the same allocations at n = 200 as at n = 2000, the twenty-one
// binary nulls being the same.
func TestEvaluateRefusesBeforeCopying(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	allocs := func(n int) float64 {
		s := schema.MustNew("R", []string{"A", "B"},
			[]*schema.Domain{schema.IntDomain("a", "v", n), schema.IntDomain("b", "w", 2)})
		f := fd.MustParseSet(s, "A -> B")[0]
		r := relation.New(s)
		for i := 1; i <= n; i++ {
			b := "w1"
			if i <= 21 {
				b = "-"
			}
			r.MustInsertRow("v"+strconv.Itoa(i), b)
		}
		if _, err := Evaluate(f, r, 0); !errors.Is(err, relation.ErrTooManyCompletions) {
			t.Fatalf("n=%d: err = %v, want ErrTooManyCompletions", n, err)
		}
		return testing.AllocsPerRun(20, func() { _, _ = Evaluate(f, r, 0) })
	}
	if small, large := allocs(200), allocs(2000); small != large {
		t.Errorf("Evaluate's refusal allocates %v at n=200 and %v at n=2000; want the same", small, large)
	}
}

package chase

import (
	"math/rand"
	"testing"

	"fdnull/internal/eval"
	"fdnull/internal/fd"
	"fdnull/internal/relation"
	"fdnull/internal/schema"
)

// TestWeakInferenceOnMinimallyIncomplete mechanizes the paper's Section 5
// closing claim: "if we impose the state and domain-dependent condition
// on allowable nulls, we show in the next section that the result holds
// for weak satisfiability in relation instances which we call 'minimally
// incomplete'". Concretely: on a minimally incomplete, weakly satisfiable
// instance, every Armstrong consequence of F weakly holds — no implied
// dependency can evaluate to false on any tuple (a satisfying completion
// of F also satisfies f, so f(t,r) ≠ false everywhere).
func TestWeakInferenceOnMinimallyIncomplete(t *testing.T) {
	rng := rand.New(rand.NewSource(56))
	dom := schema.IntDomain("d", "v", 12)
	s := schema.Uniform("R", []string{"A", "B", "C"}, dom)
	fdPool := [][]fd.FD{
		fd.MustParseSet(s, "A -> B; B -> C"),
		fd.MustParseSet(s, "A -> B,C"),
		fd.MustParseSet(s, "A,B -> C; C -> A"),
	}
	goals := []fd.FD{
		fd.MustParse(s, "A -> C"),
		fd.MustParse(s, "A -> B"),
		fd.MustParse(s, "A,B -> C"),
		fd.MustParse(s, "A,C -> B"),
	}
	exercised := 0
	for trial := 0; trial < 200; trial++ {
		fds := fdPool[rng.Intn(len(fdPool))]
		r := relation.New(s)
		n := 1 + rng.Intn(4)
		nulls := 0
		for i := 0; i < n; i++ {
			row := make([]string, 3)
			for j := range row {
				if rng.Intn(4) == 0 && nulls < 4 {
					nulls++
					row[j] = "-"
				} else {
					row[j] = dom.Values[rng.Intn(3)]
				}
			}
			_ = r.InsertRow(row...)
		}
		if r.Len() == 0 {
			continue
		}
		res, err := Run(r, fds, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Consistent {
			continue // not weakly satisfiable; the claim does not apply
		}
		for _, g := range goals {
			if !fd.Implies(fds, g) {
				continue
			}
			weak, err := eval.WeakHolds(g, res.Relation)
			if err != nil {
				t.Fatal(err)
			}
			if !weak {
				t.Fatalf("trial %d: implied FD %s evaluates false on the minimally incomplete instance\nF = %s\n%s",
					trial, g.Format(s), fd.FormatSet(s, fds), res.Relation)
			}
			exercised++
		}
	}
	if exercised == 0 {
		t.Fatal("no implication instances exercised")
	}
}

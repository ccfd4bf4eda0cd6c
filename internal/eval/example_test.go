package eval_test

import (
	"fmt"

	"fdnull/internal/eval"
	"fdnull/internal/fd"
	"fdnull/internal/relation"
	"fdnull/internal/schema"
)

// ExampleCheckAll evaluates a small FD batch over a relation with a null
// and prints the per-FD verdict summaries. Workers: 1 keeps the run
// deterministic for the example; production callers leave it 0 (one
// worker per core).
func ExampleCheckAll() {
	s := schema.Uniform("R", []string{"A", "B", "C"},
		schema.IntDomain("d", "v", 4))
	r := relation.MustFromRows(s,
		[]string{"v1", "v2", "v3"},
		[]string{"v1", "v2", "-"},
		[]string{"v2", "v4", "v3"},
	)
	fds := fd.MustParseSet(s, "A -> B; A -> C")

	res := eval.CheckAll(fds, r, eval.CheckOptions{
		Engine:  eval.EngineIndexed,
		Workers: 1,
	})
	for _, sum := range res.Summaries {
		fmt.Printf("%s: strong=%v weak=%v (true %d, unknown %d, false %d)\n",
			sum.FD.Format(s), sum.StrongHolds, sum.WeakHolds,
			sum.True, sum.Unknown, sum.False)
	}
	fmt.Printf("all strong: %v, each weakly holds: %v\n", res.AllStrong, res.AllWeak)
	// Output:
	// A -> B: strong=true weak=true (true 3, unknown 0, false 0)
	// A -> C: strong=false weak=true (true 1, unknown 2, false 0)
	// all strong: false, each weakly holds: true
}

// ExampleCheckAll_engines shows that the indexed engine and the naive
// ground-truth engine return the same verdict for the same tuple.
func ExampleCheckAll_engines() {
	s := schema.Uniform("R", []string{"A", "B"},
		schema.IntDomain("d", "v", 3))
	r := relation.MustFromRows(s,
		[]string{"v1", "v2"},
		[]string{"v1", "-"},
	)
	fds := fd.MustParseSet(s, "A -> B")
	for _, e := range []eval.Engine{eval.EngineNaive, eval.EngineIndexed} {
		res := eval.CheckAll(fds, r, eval.CheckOptions{Engine: e, Workers: 1, KeepVerdicts: true})
		if err := res.Err(); err != nil {
			panic(err)
		}
		fmt.Printf("%s engine: %s\n", e, res.Verdicts[0][1])
	}
	// Output:
	// naive engine: unknown [U]
	// indexed engine: unknown [U]
}

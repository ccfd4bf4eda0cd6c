package fdnull_test

// Large-scale integration test: the full pipeline at a size two orders of
// magnitude beyond the unit fixtures. Guarded by -short.

import (
	"fmt"
	"reflect"
	"testing"

	fdnull "fdnull"
	"fdnull/internal/chase"
	"fdnull/internal/discover"
	"fdnull/internal/eval"
	"fdnull/internal/fd"
	"fdnull/internal/paperex"
	"fdnull/internal/query"
	"fdnull/internal/relation"
	"fdnull/internal/schema"
	"fdnull/internal/store"
	"fdnull/internal/testfds"
	"fdnull/internal/workload"
)

func TestLargeScalePipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("large-scale pipeline skipped in -short mode")
	}
	const n = 8000
	s, fds, r := workload.Employees(n, 50, 0.15, 777)
	if r.Len() != n {
		t.Fatalf("generator produced %d tuples", r.Len())
	}

	// 1. TEST-FDs, all algorithms except the quadratic one, must agree.
	okSorted, _ := testfds.Check(r, fds, testfds.Weak, testfds.Sorted)
	okBucket, _ := testfds.Check(r, fds, testfds.Weak, testfds.Bucket)
	if !okSorted || !okBucket {
		t.Fatal("employee workload must pass the weak test")
	}

	// 2. The chase terminates within the theoretical pass bound and
	// stays consistent; all forced contract types get substituted.
	res, err := chase.Run(r, fds, chase.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Consistent {
		t.Fatal("workload must be weakly satisfiable")
	}
	bound := r.Len()*s.Arity() + 1
	if res.Passes > bound {
		t.Fatalf("passes %d exceed bound %d", res.Passes, bound)
	}
	if res.Relation.NullCount() >= r.NullCount() {
		t.Error("the chase should have substituted some forced nulls")
	}

	// 3. The chased instance is a fixpoint and still passes TEST-FDs.
	res2, err := chase.Run(res.Relation, fds, chase.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Applications != 0 {
		t.Error("chase output must be a fixpoint")
	}
	if ok, _ := testfds.Check(res.Relation, fds, testfds.Weak, testfds.Sorted); !ok {
		t.Error("chased instance must pass the weak test")
	}

	// 4. Normalization pipeline at scale: decompose, project, pad, chase.
	comps := fdnull.ThreeNFSynthesize(s.All(), fds)
	lossless, err := fdnull.Lossless(s.All(), comps, fds)
	if err != nil || !lossless {
		t.Fatalf("3NF synthesis must be lossless: %v %v", lossless, err)
	}
	frags, err := fdnull.ProjectInstance(res.Relation, comps)
	if err != nil {
		t.Fatal(err)
	}
	u, err := fdnull.PadToUniversal(s, frags, comps)
	if err != nil {
		t.Fatal(err)
	}
	okU, _, err := fdnull.WeaklySatisfiable(u, fds)
	if err != nil || !okU {
		t.Fatalf("padded reassembly must be weakly satisfiable: %v %v", okU, err)
	}

	// 5. Three-valued selection over the chased instance.
	sel := fdnull.Select(res.Relation, fdnull.Eq{Attr: s.MustAttr("CT"), Const: "full"})
	if len(sel.Sure) == 0 {
		t.Error("some employees certainly have full contracts")
	}
}

// TestZeroOptionsAreProduction pins the rule that an oracle is never a
// default: at every layer the zero Options run the production engine —
// the same result, and the same Engine value, as naming the production
// constant; the chase and the store name no engine at all, their oracles
// being chase.RunPairwise and store.NewRecheckOracle — and that engine
// agrees with the layer's oracle on instances from the differential
// generators (workload.Config, the FD-set shapes, workload.WriteHeavy).
func TestZeroOptionsAreProduction(t *testing.T) {
	if z := (chase.Options{}); z.Mode != chase.Extended {
		t.Errorf("chase.Options{} = %v", z.Mode)
	}
	if z := (eval.CheckOptions{}); z.Engine != eval.EngineIndexed {
		t.Errorf("eval.CheckOptions{}.Engine = %v", z.Engine)
	}
	if z := (discover.Options{}); z.Engine != discover.EnginePartition {
		t.Errorf("discover.Options{}.Engine = %v", z.Engine)
	}
	if z := (query.Options{}); z.Engine != query.EngineIndexed {
		t.Errorf("query.Options{}.Engine = %v", z.Engine)
	}
	for _, cfg := range []workload.Config{
		{Seed: 1, Tuples: 14, Attrs: 3, DomainSize: 4, NullDensity: 0, GroupBias: 0.5},
		{Seed: 2, Tuples: 10, Attrs: 3, DomainSize: 4, NullDensity: 0.08, GroupBias: 0.4},
		{Seed: 3, Tuples: 5, Attrs: 3, DomainSize: 3, NullDensity: 0.2, GroupBias: 0.3, SharedMarkRate: 0.4},
	} {
		s := cfg.Scheme()
		r := cfg.Instance(s)
		for _, fds := range [][]fd.FD{workload.ChainFDs(s), workload.StarFDs(s), workload.RandomFDs(s, 3, 2, cfg.Seed)} {
			// chase: zero, the named production mode, the pairwise oracle.
			var runs []*chase.Result
			for k, o := range []chase.Options{{}, {Mode: chase.Extended}, {}} {
				run := chase.Run
				if k == 2 {
					run = chase.RunPairwise
				}
				res, err := run(r, fds, o)
				if err != nil {
					t.Fatal(err)
				}
				runs = append(runs, res)
			}
			if !reflect.DeepEqual(runs[0], runs[1]) {
				t.Errorf("seed %d: chase.Options{} is not the congruence engine", cfg.Seed)
			}
			if !relation.Equal(runs[0].Relation, runs[2].Relation) || runs[0].Consistent != runs[2].Consistent {
				t.Errorf("seed %d: chase.Options{} disagrees with the pairwise oracle", cfg.Seed)
			}

			// eval
			ezero := eval.CheckAll(fds, r, eval.CheckOptions{Workers: 1, KeepVerdicts: true})
			eprod := eval.CheckAll(fds, r, eval.CheckOptions{Engine: eval.EngineIndexed, Workers: 1, KeepVerdicts: true})
			enaive := eval.CheckAll(fds, r, eval.CheckOptions{Engine: eval.EngineNaive, Workers: 1, KeepVerdicts: true})
			if ezero.Engine != eval.EngineIndexed || !reflect.DeepEqual(ezero, eprod) {
				t.Errorf("seed %d: eval.CheckOptions{} is not the indexed engine", cfg.Seed)
			}
			if ezero.Err() != nil || !reflect.DeepEqual(ezero.Verdicts, enaive.Verdicts) {
				t.Errorf("seed %d: eval.CheckOptions{} disagrees with the naive oracle (err %v)", cfg.Seed, ezero.Err())
			}
		}

		// discover
		var mined [][]fd.FD
		for _, e := range []discover.Engine{discover.EnginePartition, discover.EngineNaive} {
			fds, err := discover.Run(r, discover.Options{MaxLHS: 2, Engine: e})
			if err != nil {
				t.Fatal(err)
			}
			mined = append(mined, fds)
		}
		dzero, err := discover.Run(r, discover.Options{MaxLHS: 2})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(dzero, mined[0]) || !reflect.DeepEqual(dzero, mined[1]) {
			t.Errorf("seed %d: discover.Options{} = %v, partition %v, naive %v", cfg.Seed, dzero, mined[0], mined[1])
		}

		// query (the plan report names the engine that ran)
		for _, where := range []string{"A = v1", "A = v2 and B in (v1, v2)", "A = v1 or C = v3", "not B = v2"} {
			p, err := query.ParsePred(s, where)
			if err != nil {
				t.Fatal(err)
			}
			qzero, ex := query.SelectExplain(r, p, query.Options{})
			qprod := query.SelectWith(r, p, query.Options{Engine: query.EngineIndexed})
			qnaive := query.SelectWith(r, p, query.Options{Engine: query.EngineNaive})
			if ex.Engine != query.EngineIndexed.String() || !qzero.Equal(qprod) {
				t.Errorf("seed %d %q: query.Options{} is not the planner (%s)", cfg.Seed, where, ex.Engine)
			}
			if !qzero.Equal(qnaive) {
				t.Errorf("seed %d %q: query.Options{} disagrees with the naive scan", cfg.Seed, where)
			}
		}
	}

	// store: replay the write-heavy generator's rows (every tenth one
	// restating its group's D, so it must be rejected) into the
	// production store and the recheck oracle.
	const n, groups = 60, 12
	s, fds, base, gen := workload.WriteHeavy(n, groups, 0.2, 5)
	var stores []*store.Store
	for _, build := range [...]func(*schema.Scheme, []fd.FD, *relation.Relation) (*store.Store, error){store.FromRelation, store.NewRecheckOracle} {
		st, err := build(s, fds, base)
		if err != nil {
			t.Fatal(err)
		}
		stores = append(stores, st)
	}
	rejected := 0
	for i := n; i < n+40; i++ {
		row := gen(i)
		if i%10 == 9 {
			row[3] = fmt.Sprintf("d%d", (i%groups+1)%13+1)
		}
		errZero := stores[0].InsertRow(row...)
		if errZero != nil {
			rejected++
		}
		for _, st := range stores[1:] {
			err := st.InsertRow(row...)
			if (err == nil) != (errZero == nil) || (err != nil && err.Error() != errZero.Error()) {
				t.Fatalf("row %d: store.FromRelation answered %v, the recheck oracle answered %v", i, errZero, err)
			}
			if !relation.Equal(st.Snapshot(), stores[0].Snapshot()) {
				t.Fatalf("row %d: store.FromRelation diverged from the recheck oracle", i)
			}
		}
	}
	if rejected != 4 {
		t.Errorf("store replay rejected %d rows, want the 4 doomed ones", rejected)
	}

	// The plain system needs no engine name: Mode alone selects the
	// pairwise passes, in RuleOrder — Figure 5's two outcomes.
	_, f5, r5 := paperex.Figure5()
	b := r5.Scheme().MustAttr("B")
	for i, order := range [][]int{{0, 1}, {1, 0}} {
		res, err := chase.Run(r5, f5, chase.Options{Mode: chase.Plain, RuleOrder: order})
		if err != nil {
			t.Fatal(err)
		}
		want := []string{"b1", "b2"}[i]
		if got := res.Relation.Tuple(1)[b]; !got.IsConst() || got.Const() != want || len(res.Stuck) == 0 {
			t.Errorf("plain chase, order %v: B = %v (want %s), stuck %v", order, got, want, res.Stuck)
		}
	}
}

package fdnull_test

// Benchmarks backing the complexity claims of the paper; every table of
// EXPERIMENTS.md cites the benchmark that regenerates it.
//
//	TEST-FDs (Figure 3, Theorem 2/3):   BenchmarkTestFDs_*
//	Additional Assumptions (Figure 3):  BenchmarkTestFDs_Bucket (cold, warm), _Presorted
//	NS-rules / chase (Section 6):       BenchmarkChase_*
//	Proposition 1 vs the definition:    BenchmarkEvaluate_*
//	Closure / implication substrate:    BenchmarkClosure, BenchmarkImplies
//	System C model checking:            BenchmarkSystemC_Infers
//	Normalization:                      BenchmarkThreeNFSynthesize, BenchmarkLossless

import (
	"fmt"
	"math/rand"
	"testing"

	fdnull "fdnull"
	"fdnull/internal/chase"
	"fdnull/internal/discover"
	"fdnull/internal/eval"
	"fdnull/internal/fd"
	"fdnull/internal/query"
	"fdnull/internal/relation"
	"fdnull/internal/schema"
	"fdnull/internal/store"
	"fdnull/internal/systemc"
	"fdnull/internal/testfds"
	"fdnull/internal/workload"
)

// benchSizes are the n-sweep used by the scaling benchmarks.
var benchSizes = []int{250, 1000, 4000}

func employeesBench(n int) (*schema.Scheme, []fd.FD, *relation.Relation) {
	return workload.Employees(n, 8, 0.1, int64(n))
}

func BenchmarkTestFDs_Sorted(b *testing.B) {
	for _, n := range benchSizes {
		_, fds, r := employeesBench(n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if ok, _ := testfds.Check(r, fds, testfds.Weak, testfds.Sorted); !ok {
					b.Fatal("workload must be satisfiable")
				}
			}
		})
	}
}

// BenchmarkTestFDs_Bucket prices the grouping the two deciders use: cold
// checks a fresh Clone per iteration (cloned with the timer stopped), so
// the X-partition index build is in the figure; warm checks one relation
// whose indexes are cached, as a batch pass does after CheckAll.
func BenchmarkTestFDs_Bucket(b *testing.B) {
	for _, n := range benchSizes {
		_, fds, r := employeesBench(n)
		check := func(b *testing.B, r *relation.Relation) {
			if ok, _ := testfds.Check(r, fds, testfds.Weak, testfds.Bucket); !ok {
				b.Fatal("workload must be satisfiable")
			}
		}
		b.Run(fmt.Sprintf("cold/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				fresh := r.Clone()
				b.StartTimer()
				check(b, fresh)
			}
		})
		b.Run(fmt.Sprintf("warm/n=%d", n), func(b *testing.B) {
			check(b, r)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				check(b, r)
			}
		})
	}
}

func BenchmarkTestFDs_Pairwise(b *testing.B) {
	for _, n := range benchSizes {
		_, fds, r := employeesBench(n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if ok, _ := testfds.Check(r, fds, testfds.Weak, testfds.Pairwise); !ok {
					b.Fatal("workload must be satisfiable")
				}
			}
		})
	}
}

func BenchmarkTestFDs_StrongConvention(b *testing.B) {
	for _, n := range benchSizes {
		_, fds, r := employeesBench(n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				testfds.Check(r, fds, testfds.Strong, testfds.Sorted)
			}
		})
	}
}

func BenchmarkTestFDs_Presorted(b *testing.B) {
	// Figure 3's "Additional Assumptions": one key FD, relation already
	// grouped on the key — linear scan.
	for _, n := range benchSizes {
		s, _, r := employeesBench(n)
		key := fd.MustParse(s, "E# -> SL,D#,CT")
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if ok, _ := testfds.CheckPresorted(r, key, testfds.Weak); !ok {
					b.Fatal("workload must be satisfiable")
				}
			}
		})
	}
}

func chaseWorkload(n int) (*relation.Relation, []fd.FD) {
	cfg := workload.Config{Seed: int64(n) + 1, Tuples: n, Attrs: 4,
		DomainSize: n, NullDensity: 0.3, GroupBias: 0.6, SharedMarkRate: 0.2}
	s := cfg.Scheme()
	return cfg.Instance(s), workload.ChainFDs(s)
}

func BenchmarkChase_Naive(b *testing.B) {
	for _, n := range []int{100, 400, 1600} {
		r, fds := chaseWorkload(n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := chase.RunPairwise(r, fds, chase.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkChase_Congruence(b *testing.B) {
	for _, n := range []int{100, 400, 1600} {
		r, fds := chaseWorkload(n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := chase.Run(r, fds, chase.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkWeaklySatisfiable(b *testing.B) {
	// Theorem 4(b) end-to-end: chase + nothing test.
	for _, n := range benchSizes {
		_, fds, r := employeesBench(n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ok, _, err := chase.WeaklySatisfiable(r, fds)
				if err != nil || !ok {
					b.Fatal("workload must be weakly satisfiable")
				}
			}
		})
	}
}

// BenchmarkCheckAll sweeps the batch engines over complete employee
// instances: EngineNaive re-scans the relation per tuple (O(|F| n²)),
// EngineIndexed probes the X-partition index (O(|F| n)); the parallel
// variant additionally spreads the tuples×FDs grid over the worker pool.
func BenchmarkCheckAll(b *testing.B) {
	for _, n := range benchSizes {
		_, fds, r := workload.Employees(n, 8, 0, int64(n))
		for _, cfg := range []struct {
			name string
			opts eval.CheckOptions
		}{
			{"naive", eval.CheckOptions{Engine: eval.EngineNaive, Workers: 1}},
			{"indexed-seq", eval.CheckOptions{Engine: eval.EngineIndexed, Workers: 1}},
			{"indexed-pool", eval.CheckOptions{Engine: eval.EngineIndexed}},
		} {
			b.Run(fmt.Sprintf("n=%d/%s", n, cfg.name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if res := eval.CheckAll(fds, r, cfg.opts); res.Err() != nil {
						b.Fatal(res.Err())
					}
				}
			})
		}
	}
}

// BenchmarkIndexBuild isolates the cost CheckAll amortizes: one
// X-partition pass over the instance.
func BenchmarkIndexBuild(b *testing.B) {
	for _, n := range benchSizes {
		s, _, r := workload.Employees(n, 8, 0, int64(n))
		x := s.MustSet("E#")
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if ix := relation.BuildIndex(r, x); ix.GroupCount() == 0 {
					b.Fatal("empty index")
				}
			}
		})
	}
}

func BenchmarkEvaluate_Proposition1(b *testing.B) {
	// The polynomial classifier on a tuple with one null in X.
	s, f, r := fig2R4()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := eval.Evaluate(f, r, 0); err != nil {
			b.Fatal(err)
		}
	}
	_ = s
}

func BenchmarkEvaluate_Definition(b *testing.B) {
	// The exponential least-extension definition on the same input — the
	// ablation for Proposition 1.
	s, f, r := fig2R4()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := eval.Value(f, r, 0); err != nil {
			b.Fatal(err)
		}
	}
	_ = s
}

// fig2R4 builds a larger F2-style instance: one nulled tuple against a
// block of complete tuples.
func fig2R4() (*schema.Scheme, fd.FD, *relation.Relation) {
	s := schema.MustNew("R", []string{"A", "B", "C"}, []*schema.Domain{
		schema.IntDomain("domA", "a", 8),
		schema.IntDomain("domB", "b", 8),
		schema.IntDomain("domC", "c", 64),
	})
	f := fd.MustParse(s, "A,B -> C")
	r := relation.New(s)
	r.MustInsertRow("-", "b1", "c1")
	k := 2
	for a := 1; a <= 8; a++ {
		r.MustInsertRow(fmt.Sprintf("a%d", a), "b1", fmt.Sprintf("c%d", k))
		k++
	}
	return s, f, r
}

func BenchmarkClosure(b *testing.B) {
	for _, nf := range []int{8, 32, 128} {
		s := workload.Config{Tuples: 1, Attrs: 16, DomainSize: 2}.Scheme()
		fds := workload.RandomFDs(s, nf, 3, int64(nf))
		x := schema.NewAttrSet(0, 1)
		b.Run(fmt.Sprintf("F=%d", nf), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				fd.Closure(x, fds)
			}
		})
	}
}

func BenchmarkImplies(b *testing.B) {
	s := workload.Config{Tuples: 1, Attrs: 16, DomainSize: 2}.Scheme()
	fds := workload.RandomFDs(s, 64, 3, 7)
	goal := fd.New(schema.NewAttrSet(0), schema.NewAttrSet(5))
	for i := 0; i < b.N; i++ {
		fd.Implies(fds, goal)
	}
}

func BenchmarkSystemC_Infers(b *testing.B) {
	// Exhaustive 3^v model checking — the price of the semantic route the
	// paper's Lemma 2 replaces with the rule closure.
	for _, vars := range []int{4, 6, 8} {
		s := workload.Config{Tuples: 1, Attrs: vars, DomainSize: 2}.Scheme()
		fds := workload.ChainFDs(s)
		ims := systemc.ImplsFromFDs(s, fds)
		goal := systemc.ImplFromFD(s, fd.New(schema.NewAttrSet(0), schema.NewAttrSet(schema.Attr(vars-1))))
		b.Run(fmt.Sprintf("vars=%d", vars), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if !systemc.Infers(ims, goal) {
					b.Fatal("chain goal must be inferred")
				}
			}
		})
	}
}

func BenchmarkSystemC_InfersByRules(b *testing.B) {
	// The rule-closure decision (Lemma 2's point: same answers, cheap).
	for _, vars := range []int{4, 6, 8} {
		s := workload.Config{Tuples: 1, Attrs: vars, DomainSize: 2}.Scheme()
		fds := workload.ChainFDs(s)
		ims := systemc.ImplsFromFDs(s, fds)
		goal := systemc.ImplFromFD(s, fd.New(schema.NewAttrSet(0), schema.NewAttrSet(schema.Attr(vars-1))))
		b.Run(fmt.Sprintf("vars=%d", vars), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if !systemc.InfersByRules(ims, goal) {
					b.Fatal("chain goal must be inferred")
				}
			}
		})
	}
}

func BenchmarkThreeNFSynthesize(b *testing.B) {
	for _, p := range []int{6, 10, 14} {
		s := workload.Config{Tuples: 1, Attrs: p, DomainSize: 2}.Scheme()
		fds := workload.RandomFDs(s, p, 2, int64(p))
		all := s.All()
		b.Run(fmt.Sprintf("p=%d", p), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				fdnull.ThreeNFSynthesize(all, fds)
			}
		})
	}
}

func BenchmarkLossless(b *testing.B) {
	s := workload.Config{Tuples: 1, Attrs: 10, DomainSize: 2}.Scheme()
	fds := workload.ChainFDs(s)
	comps := fdnull.ThreeNFSynthesize(s.All(), fds)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ok, err := fdnull.Lossless(s.All(), comps, fds)
		if err != nil || !ok {
			b.Fatal("synthesis must be lossless")
		}
	}
}

func BenchmarkSelect(b *testing.B) {
	// Three-valued selection (Section 2 semantics): the indexed planner
	// vs the naive scan over a small predicate batch, per instance size
	// (TestSelectAllDifferential asserts they agree). The indexes are version-cached
	// on the relation, so the indexed runs amortize one build across all
	// iterations — the serving-system steady state.
	for _, n := range []int{400, 2000} {
		s, _, r := employeesBench(n)
		e, d, ct := s.MustAttr("E#"), s.MustAttr("D#"), s.MustAttr("CT")
		preds := []fdnull.Pred{
			fdnull.Eq{Attr: e, Const: "e7"},
			fdnull.AndPred{P: fdnull.Eq{Attr: d, Const: "d3"}, Q: fdnull.Eq{Attr: ct, Const: "full"}},
			fdnull.AndPred{
				P: fdnull.In{Attr: d, Values: []string{"d1", "d2"}},
				Q: fdnull.In{Attr: ct, Values: []string{"full", "part"}}},
			fdnull.NotPred{P: fdnull.Eq{Attr: d, Const: "d1"}}, // scan fallback
		}
		for _, engine := range []query.Engine{query.EngineIndexed, query.EngineNaive} {
			b.Run(fmt.Sprintf("engine=%s/n=%d", engine, n), func(b *testing.B) {
				opts := fdnull.QueryOptions{Engine: engine, Workers: 1}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					res := fdnull.SelectAll(r, preds, opts)
					if len(res[2].Sure) == 0 {
						b.Fatal("the domain-covering batch entry should have certain answers")
					}
				}
			})
		}
	}
}

func BenchmarkStoreQuery(b *testing.B) {
	// The store's read path: one planned selection on the live relation
	// per iteration — plan, probe the D# index, evaluate the residual on
	// the candidates. Nothing memoizes the repeat.
	s, fds, r := employeesBench(2000)
	st, err := fdnull.StoreFromRelation(s, fds, r)
	if err != nil {
		b.Fatal(err)
	}
	p := fdnull.AndPred{
		P: fdnull.Eq{Attr: s.MustAttr("D#"), Const: "d3"},
		Q: fdnull.In{Attr: s.MustAttr("CT"), Values: []string{"full", "part"}},
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := st.Query(p)
		if len(res.Sure)+len(res.Maybe) == 0 {
			b.Fatal("selection should match something")
		}
	}
}

// storeMaintenances are the two store engines the maintenance benches
// compare: the incremental delta path vs the clone-and-rechase oracle.
var storeMaintenances = []struct {
	name  string
	build func(*schema.Scheme, []fd.FD, *relation.Relation) (*store.Store, error)
}{{"recheck", store.NewRecheckOracle}, {"incremental", store.FromRelation}}

func BenchmarkStoreInsert(b *testing.B) {
	// Guarded insert cost per maintenance engine at n=2000, p=8: the
	// recheck engine clones and re-chases the instance per accepted
	// insert (O(n)); the incremental engine re-verifies one partition
	// group per FD and delta-updates the warm indexes (O(group)) —
	// `make bench-store` runs this table, and TestHistoryDifferential's
	// write-heavy cases assert the engines agree.
	const n, groups = 2000, 250
	for _, m := range storeMaintenances {
		b.Run(fmt.Sprintf("n=%d/maintenance=%s", n, m.name), func(b *testing.B) {
			s, fds, base, gen := workload.WriteHeavy(n, groups, 0, 11)
			st, err := m.build(s, fds, base)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := st.InsertRow(gen(n + i%512)...); err != nil {
					b.Fatal(err)
				}
				if st.Len() >= n+512 {
					// Periodic untimed reset keeps the instance near n.
					b.StopTimer()
					st, err = m.build(s, fds, base)
					if err != nil {
						b.Fatal(err)
					}
					b.StartTimer()
				}
			}
		})
	}
}

func BenchmarkStoreMixed(b *testing.B) {
	// Write-heavy mixed workload (60% insert / 25% update / 15% delete,
	// some doomed) at stable size n=2000, p=8, per maintenance engine.
	const n, groups = 2000, 250
	for _, m := range storeMaintenances {
		b.Run(fmt.Sprintf("n=%d/maintenance=%s", n, m.name), func(b *testing.B) {
			s, fds, base, gen := workload.WriteHeavy(n, groups, 0.05, 13)
			st, err := m.build(s, fds, base)
			if err != nil {
				b.Fatal(err)
			}
			dAttr := s.MustAttr("D")
			rng := rand.New(rand.NewSource(17))
			next := n
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if st.Len() >= 2*n {
					// Untimed reset keeps the measurement regime at ~n.
					b.StopTimer()
					st, err = m.build(s, fds, base)
					if err != nil {
						b.Fatal(err)
					}
					b.StartTimer()
				}
				switch r := rng.Intn(100); {
				case r < 60 || st.Len() == 0:
					// Row ids cycle inside the U1 domain so arbitrarily
					// large b.N never exhausts it; a cycled id still
					// present is a (cheap) duplicate rejection.
					next = n + (next+1-n)%(4*n)
					_ = st.InsertRow(gen(next)...)
				case r < 85:
					ti := rng.Intn(st.Len())
					if rng.Intn(3) > 0 {
						// Retraction: always accepted, feeds later NS-work.
						_ = st.Update(ti, dAttr, st.FreshNull())
					} else {
						// Usually doomed: a random D clashes with the group.
						g := 1 + rng.Intn(13)
						_ = st.Update(ti, dAttr, fdnull.Const(fmt.Sprintf("d%d", g)))
					}
				default:
					_ = st.Delete(rng.Intn(st.Len()))
				}
			}
		})
	}
}

func BenchmarkDiscover(b *testing.B) {
	// FD mining cost per instance size and candidate-test engine (strong
	// convention, p = 8 attributes, determinants up to 2 attributes). The
	// naive engine pays one TEST-FDs sort scan per lattice candidate; the
	// partition engine amortizes all candidates over cached stripped
	// partitions (internal/partition) — `make bench-discover` runs this
	// table with -benchmem.
	for _, n := range []int{400, 2000} {
		cfg := workload.Config{Seed: int64(n) + 5, Tuples: n, Attrs: 8,
			DomainSize: 16, NullDensity: 0.1, GroupBias: 0.5}
		r := cfg.Instance(cfg.Scheme())
		for _, engine := range []discover.Engine{discover.EngineNaive, discover.EnginePartition} {
			b.Run(fmt.Sprintf("n=%d/engine=%s", n, engine), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := fdnull.DiscoverFDs(r, fdnull.DiscoverOptions{MaxLHS: 2, Engine: engine}); err != nil {
						b.Fatalf("discovery failed: %v", err)
					}
				}
			})
		}
	}
}

// BenchmarkDiscoverEmployees keeps the original p=4 employee-shaped
// workload, where discovered FDs are nonempty, on both engines.
func BenchmarkDiscoverEmployees(b *testing.B) {
	for _, n := range []int{400, 1600} {
		_, _, r := employeesBench(n)
		for _, engine := range []discover.Engine{discover.EngineNaive, discover.EnginePartition} {
			b.Run(fmt.Sprintf("n=%d/engine=%s", n, engine), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					fds, err := fdnull.DiscoverFDs(r, fdnull.DiscoverOptions{MaxLHS: 2, Engine: engine})
					if err != nil || len(fds) == 0 {
						b.Fatalf("discovery failed: %v (%d fds)", err, len(fds))
					}
				}
			})
		}
	}
}

func BenchmarkCompletions(b *testing.B) {
	// AP(t, R) enumeration cost per extra null (the exponential the
	// paper's Proposition 1 avoids).
	dom := schema.IntDomain("d", "v", 8)
	for _, nulls := range []int{1, 2, 3} {
		s := schema.Uniform("R", []string{"A", "B", "C"}, dom)
		t := make(relation.Tuple, 3)
		for i := range t {
			if i < nulls {
				t[i] = fdnull.NullValue(i + 1)
			} else {
				t[i] = fdnull.Const("v1")
			}
		}
		b.Run(fmt.Sprintf("nulls=%d", nulls), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := relation.TupleCompletions(s, t, s.All()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkStoreTxnCommit(b *testing.B) {
	// One transactional commit of a k=32-row write-set into a single
	// department-scale partition group at n=2000, p=8, per maintenance
	// engine: the incremental engine applies the set as one multi-row
	// delta with ONE check (one propagation seeded from all staged
	// rows, sweeping each touched group once); the recheck engine
	// clones and chases once per commit. `make bench-txn` runs this
	// table; TestTxnLargeBatchMatchesOracle holds both, and k per-op
	// commits, to the same final state.
	const n, k = 2000, 32
	groups := n / 512
	for _, m := range storeMaintenances {
		b.Run(fmt.Sprintf("n=%d/k=%d/maintenance=%s", n, k, m.name), func(b *testing.B) {
			s, fds, base, _ := workload.WriteHeavy(n, groups, 0, 41)
			st, err := m.build(s, fds, base)
			if err != nil {
				b.Fatal(err)
			}
			rng := rand.New(rand.NewSource(43))
			nextUID := n + 1
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if st.Len() >= n+16*k {
					// Untimed reset keeps the measurement regime at ~n.
					b.StopTimer()
					st, err = m.build(s, fds, base)
					if err != nil {
						b.Fatal(err)
					}
					nextUID = n + 1 + (i%7)*k // fresh uid window per reset epoch
					b.StartTimer()
				}
				b.StopTimer() // row generation is harness bookkeeping
				rows := workload.TxnWriteSet(rng, i%groups, k, &nextUID)
				b.StartTimer()
				tx := st.Begin()
				for _, row := range rows {
					if err := tx.InsertRow(row...); err != nil {
						b.Fatal(err)
					}
				}
				if err := tx.Commit(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkStoreTxnPerOpEquivalent(b *testing.B) {
	// The same write-sets committed op by op on the incremental engine —
	// the baseline BenchmarkStoreTxnCommit's batched commit is compared
	// against (one commit = one group re-sweep, so a k-row set re-sweeps
	// the group k times).
	const n, k = 2000, 32
	groups := n / 512
	s, fds, base, _ := workload.WriteHeavy(n, groups, 0, 41)
	st, err := fdnull.StoreFromRelation(s, fds, base)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(43))
	nextUID := n + 1
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if st.Len() >= n+16*k {
			b.StopTimer()
			st, err = fdnull.StoreFromRelation(s, fds, base)
			if err != nil {
				b.Fatal(err)
			}
			nextUID = n + 1 + (i%7)*k
			b.StartTimer()
		}
		b.StopTimer()
		rows := workload.TxnWriteSet(rng, i%groups, k, &nextUID)
		b.StartTimer()
		for _, row := range rows {
			if err := st.InsertRow(row...); err != nil {
				b.Fatal(err)
			}
		}
	}
}

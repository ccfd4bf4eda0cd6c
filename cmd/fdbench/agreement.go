package main

// agreement.go implements E15–E19, the engine-agreement sweeps: each runs
// a layer's oracle and its production engine on the same cells and fails
// on the first cell where they differ. A sweep reports how long each side
// took, but no time decides anything — a timing claim about this
// repository is made on `go run ./bench` (bench/README.md).

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"slices"
	"time"

	"fdnull/internal/discover"
	"fdnull/internal/eval"
	"fdnull/internal/fd"
	"fdnull/internal/query"
	"fdnull/internal/relation"
	"fdnull/internal/schema"
	"fdnull/internal/store"
	"fdnull/internal/testfds"
	"fdnull/internal/value"
	"fdnull/internal/workload"
)

// sweep is one agreement experiment over answers of type R.
type sweep[R any] struct {
	params []string // the columns that say which cell a row is
	sides  []string // one duration column per side, the oracle first
	cells  []cell[R]
	equal  func(oracle, got R) error // nil when got is the oracle's answer
}

// cell is one row of a sweep's table.
type cell[R any] struct {
	label []string                  // one value per param
	run   func(side int) (R, error) // computes the cell's answer as sides[side] does
}

// run runs every side of every cell once, holds each to the cell's oracle
// through equal, and prints one table. The only errors it returns are a
// side's own and a disagreement, each naming the cell and the side.
func (s sweep[R]) run(w io.Writer) error {
	t := &table{header: slices.Concat(s.params, s.sides, []string{"ratio", "agree"})}
	for _, c := range s.cells {
		row := slices.Clone(c.label)
		var oracle R
		var dOracle, d time.Duration
		for i, side := range s.sides {
			var got R
			var err error
			d = timeIt(func() { got, err = c.run(i) })
			if i == 0 {
				oracle, dOracle = got, d
			} else if err == nil {
				err = s.equal(oracle, got)
			}
			if err != nil {
				return fmt.Errorf("cell %v = %v, side %s: %w", s.params, c.label, side, err)
			}
			row = append(row, d.String())
		}
		t.add(append(row, fmt.Sprintf("%.1fx", float64(dOracle)/float64(d)), "yes")...)
	}
	t.write(w)
	fmt.Fprintln(w, "  ratio = the first side's time over the last's, one run each: information, not a claim")
	return nil
}

// runE15 holds the indexed evaluation engine, sequential and pooled, to
// the naive O(|F| n²) engine: per-FD verdict summaries must be equal.
func runE15(w io.Writer, quick bool) error {
	sizes := []int{250, 500, 1000, 2000, 4000}
	if quick {
		sizes = []int{100, 250, 1000}
	}
	workers := runtime.GOMAXPROCS(0)
	opts := []eval.CheckOptions{{Engine: eval.EngineNaive, Workers: 1},
		{Engine: eval.EngineIndexed, Workers: 1}, {Engine: eval.EngineIndexed, Workers: workers}}
	sw := sweep[*eval.BatchResult]{
		params: []string{"n", "|F|"},
		sides:  []string{"naive", "indexed-seq", fmt.Sprintf("indexed-pool(%dw)", workers)},
		equal: func(oracle, got *eval.BatchResult) error {
			for i, a := range oracle.Summaries {
				b := got.Summaries[i]
				if a.True != b.True || a.Unknown != b.Unknown || a.False != b.False {
					return fmt.Errorf("verdict summaries differ on %v", a.FD)
				}
			}
			return nil
		}}
	for _, n := range sizes {
		// A complete employee instance: nulls spread across many tuples push
		// *both* engines into the definition's exponential completion
		// enumeration, which is not the path the two engines differ on.
		_, fds, r := workload.Employees(n, 8, 0, int64(n)+17)
		sw.cells = append(sw.cells, cell[*eval.BatchResult]{
			label: []string{fmt.Sprint(r.Len()), fmt.Sprint(len(fds))},
			run: func(side int) (*eval.BatchResult, error) {
				b := eval.CheckAll(fds, r, opts[side])
				return b, b.Err()
			}})
	}
	return sw.run(w)
}

// runE16 holds the partition FD-discovery engine to the naive one (a
// TEST-FDs sort scan per lattice candidate), under both conventions: the
// results must be FD-for-FD identical, order included.
func runE16(w io.Writer, quick bool) error {
	// An n-sweep at p = 8 and a p-sweep at n = 500, both with MaxLHS = 2
	// — the shape of BenchmarkDiscover's acceptance point.
	sizes := [][2]int{{250, 8}, {500, 8}, {1000, 8}, {2000, 8}, {500, 4}, {500, 6}, {500, 10}}
	if quick {
		sizes = [][2]int{{100, 6}, {250, 6}}
	}
	workers := runtime.GOMAXPROCS(0)
	opts := []discover.Options{{MaxLHS: 2, Engine: discover.EngineNaive},
		{MaxLHS: 2, Engine: discover.EnginePartition, Workers: workers}}
	sw := sweep[[]fd.FD]{
		params: []string{"conv", "n", "p"},
		sides:  []string{"naive", fmt.Sprintf("partition(%dw)", workers)},
		equal: func(oracle, got []fd.FD) error {
			if !slices.Equal(oracle, got) {
				return fmt.Errorf("%d FDs vs %d, or not the same ones in the same order", len(oracle), len(got))
			}
			return nil
		}}
	for _, np := range sizes {
		cfg := workload.Config{
			Seed: int64(np[0] + np[1]), Tuples: np[0], Attrs: np[1],
			DomainSize: 16, NullDensity: 0.1, GroupBias: 0.5,
		}
		r := cfg.Instance(cfg.Scheme())
		for _, conv := range []testfds.Convention{testfds.Strong, testfds.Weak} {
			sw.cells = append(sw.cells, cell[[]fd.FD]{
				label: []string{conv.String(), fmt.Sprint(r.Len()), fmt.Sprint(np[1])},
				run: func(side int) ([]fd.FD, error) {
					o := opts[side]
					o.Convention = conv
					return discover.Run(r, o)
				}})
		}
	}
	return sw.run(w)
}

// storeOp is one replayable history operation. An update's or delete's
// victim is a tuple index: the engines keep the same tuple order.
type storeOp struct {
	kind int // 0 insert, 1 update, 2 delete
	row  []string
	ti   int
	attr schema.Attr
	val  value.V
}

// replay applies ops to st and returns one verdict byte per op.
func replay(st *store.Store, ops []storeOp) string {
	verdicts := make([]byte, len(ops))
	for k, op := range ops {
		var err error
		switch op.kind {
		case 0:
			err = st.InsertRow(op.row...)
		case 1:
			err = st.Update(op.ti, op.attr, op.val)
		default:
			err = st.Delete(op.ti)
		}
		switch {
		case err == nil:
			verdicts[k] = 'a'
		case errors.Is(err, store.ErrInconsistent):
			verdicts[k] = 'r' // constraint rejection, with a chase witness
		default:
			verdicts[k] = 'e' // structural (duplicate, domain, range)
		}
	}
	return string(verdicts)
}

// storeOutcome is what E17 and E18 compare: what a store said to each
// operation (E17; E18 takes any refusal for an error), and what it holds
// and has counted once its history is over.
type storeOutcome struct {
	verdicts string
	state    *relation.Relation
	stats    [4]int // inserts, updates, deletes, rejected
}

func equalOutcome(oracle, got storeOutcome) error {
	switch {
	case oracle.verdicts != got.verdicts:
		return errors.New("verdicts diverged")
	case !relation.Equal(oracle.state, got.state):
		return errors.New("final states diverged")
	case oracle.stats != got.stats:
		return fmt.Errorf("stats diverged: %v vs %v (inserts, updates, deletes, rejected)", oracle.stats, got.stats)
	}
	return nil
}

// storeCell builds a fresh store over base for each of the sides,
// outside the timing — side 0 on the recheck oracle, every later side on
// the incremental engine; side i runs history(i, ·) on its own.
func storeCell(s *schema.Scheme, fds []fd.FD, base *relation.Relation, label []string,
	sides int, history func(side int, st *store.Store) (verdicts string, err error)) (cell[storeOutcome], error) {
	stores := make([]*store.Store, sides)
	for i := range stores {
		build := store.FromRelation
		if i == 0 {
			build = store.NewRecheckOracle
		}
		var err error
		if stores[i], err = build(s, fds, base); err != nil {
			return cell[storeOutcome]{}, err
		}
	}
	return cell[storeOutcome]{label, func(side int) (storeOutcome, error) {
		st := stores[side]
		verdicts, err := history(side, st)
		i, u, d, r := st.Stats()
		return storeOutcome{verdicts, st.Snapshot(), [4]int{i, u, d, r}}, err
	}}, nil
}

// runE17 replays one write-heavy history — fresh inserts, then a mix with
// doomed updates and deletes — against the recheck oracle (clone and
// re-chase per mutation) and the incremental engine: verdict strings,
// final states and stats must be equal.
func runE17(w io.Writer, quick bool) error {
	sizes := []int{250, 500, 1000, 2000}
	inserts, mixed := 256, 200
	if quick {
		sizes = []int{100, 250, 500}
		inserts, mixed = 96, 80
	}
	sw := sweep[storeOutcome]{params: []string{"n", "|F|", "ops"}, sides: []string{"recheck", "incremental"}, equal: equalOutcome}
	for _, n := range sizes {
		s, fds, base, gen := workload.WriteHeavy(n, n/8, 0.05, int64(n)+29)
		// The history is generated against a shadow replica, which says how
		// many tuples there are to pick a victim from at every step.
		shadow, err := store.FromRelation(s, fds, base)
		if err != nil {
			return err
		}
		rng := rand.New(rand.NewSource(int64(n) + 31))
		dAttr := s.MustAttr("D")
		var ops []storeOp
		for next := n; len(ops) < inserts+mixed; {
			r := 0 // `inserts` fresh inserts, then 55% inserts, 30% updates, 15% deletes
			if len(ops) >= inserts {
				r = rng.Intn(100)
			}
			var op storeOp
			switch {
			case r < 55:
				op = storeOp{kind: 0, row: gen(next)}
				next++
			case r < 85:
				op = storeOp{kind: 1, ti: rng.Intn(shadow.Len()), attr: dAttr,
					val: value.NewConst(fmt.Sprintf("d%d", 1+rng.Intn(13)))}
			default:
				op = storeOp{kind: 2, ti: rng.Intn(shadow.Len())}
			}
			replay(shadow, []storeOp{op})
			ops = append(ops, op)
		}
		c, err := storeCell(s, fds, base, []string{fmt.Sprint(n), fmt.Sprint(len(fds)), fmt.Sprintf("%d+%d", inserts, mixed)},
			2,
			func(_ int, st *store.Store) (string, error) { return replay(st, ops), nil })
		if err != nil {
			return err
		}
		sw.cells = append(sw.cells, c)
	}
	return sw.run(w)
}

// runE18 commits write-sets of k = 32 inserts that land in ONE partition
// group three ways: one Txn.Commit each on the recheck oracle (one chase
// per commit), k one-op commits each on the incremental engine, and one
// Txn.Commit each on it (one multi-row delta, one NS-propagation seeded
// from all staged rows). For pure-insert write-sets deferred and op-by-op
// checking coincide, so all three must reach the identical instance,
// marks included, with equal stats and no refusal.
func runE18(w io.Writer, quick bool) error {
	sizes := []int{500, 1000, 2000}
	batches, k := 8, 32
	if quick {
		sizes = []int{250, 500}
		batches = 4
	}
	sw := sweep[storeOutcome]{params: []string{"n", "k", "sets"}, equal: equalOutcome,
		sides: []string{"oracle (1 chase)", "per-op inc", "batched txn"}}
	const perOp = 1 // the side that commits a write-set row by row
	for _, n := range sizes {
		// Division-scale partition groups (a handful of several hundred rows
		// at n=2000), so the group a write-set lands in is large against k.
		groups := max(n/512, 2)
		s, fds, base, _ := workload.WriteHeavy(n, groups, 0, int64(n)+41)
		rng := rand.New(rand.NewSource(int64(n) + 43))
		nextUID := n + 1
		sets := make([][][]string, batches)
		for b := range sets {
			sets[b] = workload.TxnWriteSet(rng, (b*37)%groups, k, &nextUID)
		}
		c, err := storeCell(s, fds, base, []string{fmt.Sprint(n), fmt.Sprint(k), fmt.Sprint(batches)},
			3,
			func(side int, st *store.Store) (string, error) {
				for _, rows := range sets {
					if side == perOp {
						for _, row := range rows {
							if err := st.InsertRow(row...); err != nil {
								return "", err
							}
						}
						continue
					}
					tx := st.Begin()
					for _, row := range rows {
						if err := tx.InsertRow(row...); err != nil {
							return "", err
						}
					}
					if err := tx.Commit(); err != nil {
						return "", err
					}
				}
				return "", nil
			})
		if err != nil {
			return err
		}
		sw.cells = append(sw.cells, c)
	}
	return sw.run(w)
}

// predAtoms draws a battery's atoms over the employee scheme, every
// constant from one seeded source.
type predAtoms struct {
	rng         *rand.Rand
	e, d, ct    schema.Attr
	nEmp, nDept int
}

func (a *predAtoms) emp() string                  { return fmt.Sprintf("e%d", 1+a.rng.Intn(a.nEmp)) }
func (a *predAtoms) dep() string                  { return fmt.Sprintf("d%d", 1+a.rng.Intn(a.nDept)) }
func (a *predAtoms) eqE() query.Pred              { return query.Eq{Attr: a.e, Const: a.emp()} }
func (a *predAtoms) eqD() query.Pred              { return query.Eq{Attr: a.d, Const: a.dep()} }
func (a *predAtoms) eqCT(c string) query.Pred     { return query.Eq{Attr: a.ct, Const: c} }
func in(x schema.Attr, vals ...string) query.Pred { return query.In{Attr: x, Values: vals} }

// queryShape is predicate i of the mixed battery: point probes on the
// key, department probes with residual conjuncts, membership atoms
// (including domain-covering ones — the paper's married-or-single
// transformation), and un-indexable negation shapes that exercise the
// planner's scan fallback.
func queryShape(a *predAtoms, i int) query.Pred {
	switch i % 12 {
	case 1, 9:
		return query.And{P: a.eqD(), Q: a.eqCT("full")}
	case 2, 6:
		return query.And{P: a.eqE(), Q: query.Not{P: a.eqCT("part")}}
	case 3:
		return query.And{P: in(a.d, a.dep(), a.dep()), Q: in(a.ct, "full", "part")}
	case 5:
		return query.And{P: a.eqD(), Q: query.Or{P: a.eqCT("full"), Q: query.EqAttr{A: a.e, B: a.e}}}
	case 7, 10:
		return in(a.e, a.emp(), a.emp(), a.emp())
	case 11:
		if i%24 == 11 {
			// No indexable conjunct: the planner must fall back to the
			// scan (kept to 1 in 24 — each costs n in BOTH engines).
			return query.Not{P: a.eqD()}
		}
	}
	return a.eqE() // 0, 4, 8 and every other 11
}

// orShape is predicate i of the ∨/multi-conjunct battery. Two thirds of
// the shapes carry a disjunction (planned as a union of the arms'
// probes), the rest are ∧-chains of three indexable atoms (all probes
// intersected before the residual).
func orShape(a *predAtoms, i int) query.Pred {
	switch i % 6 {
	case 0, 3:
		return query.Or{P: a.eqE(), Q: a.eqE()}
	case 1:
		return query.Or{P: query.And{P: a.eqD(), Q: a.eqCT("full")}, Q: a.eqE()}
	case 2:
		return query.And{P: a.eqD(), Q: query.And{P: in(a.ct, "full", "part"), Q: in(a.e, a.emp(), a.emp(), a.emp())}}
	case 4:
		return query.Or{P: in(a.e, a.emp(), a.emp()), Q: query.And{P: a.eqD(), Q: a.eqCT("part")}}
	}
	return query.Or{P: a.eqE(), Q: query.Or{P: a.eqE(), Q: query.And{P: a.eqD(), Q: a.eqCT("part")}}}
}

// answers is a battery with one side's result per predicate.
type answers struct {
	preds []query.Pred
	res   []query.Result
}

// selectSweep holds the indexed planner, sequential and pooled, to the
// naive scan on one battery of 96 predicates: answer-for-answer equality.
func selectSweep(w io.Writer, quick bool, shape func(a *predAtoms, i int) query.Pred) error {
	sizes := []int{250, 500, 1000, 2000}
	if quick {
		sizes = []int{100, 250, 1000}
	}
	workers := runtime.GOMAXPROCS(0)
	opts := []query.Options{{Engine: query.EngineNaive, Workers: 1},
		{Engine: query.EngineIndexed, Workers: 1}, {Engine: query.EngineIndexed, Workers: workers}}
	sw := sweep[answers]{
		params: []string{"n", "|Q|"},
		sides:  []string{"naive", "indexed-seq", fmt.Sprintf("indexed-pool(%dw)", workers)},
		equal: func(oracle, got answers) error {
			for i, p := range oracle.preds {
				if !oracle.res[i].Equal(got.res[i]) {
					return fmt.Errorf("answers differ on %s", p)
				}
			}
			return nil
		}}
	for _, n := range sizes {
		s, _, r := workload.Employees(n, 8, 0.1, int64(n)+19)
		a := &predAtoms{rand.New(rand.NewSource(int64(n))), s.MustAttr("E#"), s.MustAttr("D#"), s.MustAttr("CT"), n, 8}
		preds := make([]query.Pred, 96)
		for i := range preds {
			preds[i] = shape(a, i)
		}
		// Warm the planner's indexes outside the timing: they live on the
		// relation, so a serving system builds them once, not per query.
		for _, x := range []schema.Attr{a.e, a.d, a.ct} {
			r.IndexOn(schema.NewAttrSet(x))
		}
		sw.cells = append(sw.cells, cell[answers]{
			label: []string{fmt.Sprint(r.Len()), fmt.Sprint(len(preds))},
			run: func(side int) (answers, error) {
				res := query.SelectAll(r, preds, opts[side])
				return answers{preds, res}, sanityCheckAnswers(res)
			}})
	}
	return sw.run(w)
}

func runE19(w io.Writer, quick bool) error {
	if err := selectSweep(w, quick, queryShape); err != nil {
		return err
	}
	fmt.Fprintln(w, "\n  ∨ / multi-conjunct battery:")
	if err := selectSweep(w, quick, orShape); err != nil {
		return fmt.Errorf("∨ battery: %w", err)
	}
	return nil
}

// sanityCheckAnswers guards against a degenerate sweep: engine agreement
// alone would also pass on a battery that answers nothing (e.g. a
// mis-generated workload), so every side must have answered something.
func sanityCheckAnswers(res []query.Result) error {
	for _, r := range res {
		if len(r.Sure)+len(r.Maybe) > 0 {
			return nil
		}
	}
	return errors.New("battery answered nothing at all; workload broken")
}

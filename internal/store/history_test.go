package store

// history_test.go is the HISTEX-style differential harness: randomized
// operation histories — inserts, updates, deletes, and doomed operations
// the dependencies must reject — are replayed step-by-step against two
// stores that differ only in their maintenance engine. After every
// operation the harness asserts that the engines agreed on the verdict
// (accept vs reject, with identical error text), on the Stats counters,
// on the stored instance (syntactic multiset identity, marks included),
// and — periodically — on the satisfaction verdicts under both null
// conventions (TEST-FDs strong and weak). Any divergence between the
// incremental engine and the clone-and-rechase ground truth surfaces as
// a step-numbered failure with both states printed. After every refused
// operation the incremental store is additionally held to "a rollback
// leaves no trace" (rollback_test.go).

import (
	"fmt"
	"math/rand"
	"testing"

	"fdnull/internal/fd"
	"fdnull/internal/query"
	"fdnull/internal/relation"
	"fdnull/internal/schema"
	"fdnull/internal/value"
)

// histScheme is one workload shape for the exerciser.
type histScheme struct {
	name string
	s    *schema.Scheme
	fds  []fd.FD
}

func histSchemes() []histScheme {
	emp := schema.MustNew("R",
		[]string{"E#", "SL", "D#", "CT"},
		[]*schema.Domain{
			schema.IntDomain("emp#", "e", 12),
			schema.IntDomain("salary", "s", 10),
			schema.IntDomain("dept#", "d", 5),
			schema.IntDomain("contract", "ct", 3),
		})
	chain := schema.Uniform("C", []string{"A", "B", "C", "D", "E"},
		schema.IntDomain("dom", "v", 6))
	return []histScheme{
		{"employees", emp, fd.MustParseSet(emp, "E# -> SL,D#; D# -> CT")},
		{"chain", chain, fd.MustParseSet(chain, "A -> B; B -> C; C -> D; D -> E")},
		{"overlap", chain, fd.MustParseSet(chain, "A,B -> C,D; C -> E; B -> D")},
	}
}

func assertAgreement(t *testing.T, step int, op string, errInc, errRec error, inc, rec *Store) {
	t.Helper()
	if (errInc == nil) != (errRec == nil) {
		t.Fatalf("step %d (%s): verdicts diverged: incremental=%v recheck=%v", step, op, errInc, errRec)
	}
	if errInc != nil && errInc.Error() != errRec.Error() {
		t.Fatalf("step %d (%s): error text diverged:\n incremental: %v\n recheck:     %v", step, op, errInc, errRec)
	}
	i1, u1, d1, r1 := inc.Stats()
	i2, u2, d2, r2 := rec.Stats()
	if i1 != i2 || u1 != u2 || d1 != d2 || r1 != r2 {
		t.Fatalf("step %d (%s): stats diverged: incremental=(%d,%d,%d,%d) recheck=(%d,%d,%d,%d)",
			step, op, i1, u1, d1, r1, i2, u2, d2, r2)
	}
	if !relation.Equal(inc.Snapshot(), rec.Snapshot()) {
		t.Fatalf("step %d (%s): stored instances diverged:\nincremental:\n%s\nrecheck:\n%s",
			step, op, inc.Snapshot(), rec.Snapshot())
	}
}

// readBattery draws one step's read-your-writes check: Eq on every
// attribute, an In, two EqAttr pairs, and one ∧ and one ∨ of those
// atoms. Over a history it asks the planner for the singleton index of
// every attribute and the pair index of every attribute pair — sets the
// write path itself never indexes. qrng is the exercisers' SECOND
// generator: drawing from the history's own would change the histories.
func readBattery(qrng *rand.Rand, s *schema.Scheme) []query.Pred {
	n := s.Arity()
	randConst := func(a schema.Attr) string {
		d := s.Domain(a)
		return d.Values[qrng.Intn(d.Size())]
	}
	var preds []query.Pred
	for a := schema.Attr(0); int(a) < n; a++ {
		preds = append(preds, query.Eq{Attr: a, Const: randConst(a)})
	}
	in := schema.Attr(qrng.Intn(n))
	preds = append(preds, query.In{Attr: in, Values: []string{randConst(in), randConst(in)}})
	for k := 0; k < 2; k++ {
		a := qrng.Intn(n)
		b := (a + 1 + qrng.Intn(n-1)) % n
		preds = append(preds, query.EqAttr{A: schema.Attr(a), B: schema.Attr(b)})
	}
	atoms := len(preds)
	atom := func() query.Pred { return preds[qrng.Intn(atoms)] }
	return append(preds, query.And{P: atom(), Q: atom()}, query.Or{P: atom(), Q: atom()})
}

// assertReadsMatchScan is the read-your-writes check the lockstep
// exercisers make after every step — accepted, rejected or rolled back:
// on each store, each predicate answered by Query, i.e. by the planner
// over the live relation's delta-maintained indexes, must equal the scan
// over a snapshot of the same state.
func assertReadsMatchScan(t *testing.T, step int, preds []query.Pred, stores ...*Store) {
	t.Helper()
	for _, st := range stores {
		snap := st.Snapshot()
		for _, p := range preds {
			if got, want := st.Query(p), query.Select(snap, p); !got.Equal(want) {
				t.Fatalf("step %d (%s engine): Query(%s) = sure %v maybe %v, the scan says sure %v maybe %v\n%s",
					step, engine(st.recheck), p, got.Sure, got.Maybe, want.Sure, want.Maybe, snap)
			}
		}
	}
}

func runHistory(t *testing.T, ws histScheme, seed int64, steps int) {
	rng := rand.New(rand.NewSource(seed))
	qrng := rand.New(rand.NewSource(seed))
	inc := New(ws.s, ws.fds, Options{})
	rec, err := NewRecheckOracle(ws.s, ws.fds, relation.New(ws.s))
	if err != nil || inc.recheck || !rec.recheck {
		t.Fatal("engine selection is broken")
	}
	randCell := func(a schema.Attr) string {
		d := ws.s.Domain(a)
		switch rng.Intn(16) {
		case 0, 1:
			return "-" // fresh null
		case 2, 3:
			return fmt.Sprintf("-%d", 1+rng.Intn(6)) // marked null: ties into live NECs
		case 4:
			return "!" // the inconsistent element: both engines must reject
		default:
			return d.Values[rng.Intn(d.Size())]
		}
	}
	for step := 0; step < steps; step++ {
		var op string
		var errInc, errRec error
		before := captureTrace(inc)
		switch {
		case inc.Len() == 0 || rng.Intn(10) < 5:
			op = "insert"
			row := make([]string, ws.s.Arity())
			for a := range row {
				row[a] = randCell(schema.Attr(a))
			}
			errInc = inc.InsertRow(row...)
			errRec = rec.InsertRow(row...)
		case rng.Intn(10) < 6:
			op = "update"
			ti := rng.Intn(inc.Len())
			target := inc.Tuple(ti)
			tj := rec.Find(target)
			if tj < 0 {
				t.Fatalf("step %d: no recheck tuple matches %s", step, target)
			}
			a := schema.Attr(rng.Intn(ws.s.Arity()))
			if rng.Intn(4) == 0 {
				vi, vr := inc.FreshNull(), rec.FreshNull()
				if !vi.Identical(vr) {
					t.Fatalf("step %d: fresh-null allocators diverged: %s vs %s", step, vi, vr)
				}
				before.nextMark = inc.NextMark() // the FreshNull above is not the write-set's
				errInc = inc.Update(ti, a, vi)
				errRec = rec.Update(tj, a, vr)
			} else {
				d := ws.s.Domain(a)
				v := value.NewConst(d.Values[rng.Intn(d.Size())])
				errInc = inc.Update(ti, a, v)
				errRec = rec.Update(tj, a, v)
			}
		default:
			op = "delete"
			ti := rng.Intn(inc.Len())
			target := inc.Tuple(ti)
			tj := rec.Find(target)
			if tj < 0 {
				t.Fatalf("step %d: no recheck tuple matches %s", step, target)
			}
			errInc = inc.Delete(ti)
			errRec = rec.Delete(tj)
		}
		assertAgreement(t, step, op, errInc, errRec, inc, rec)
		if errInc != nil {
			assertNoTrace(t, fmt.Sprintf("step %d (%s refused)", step, op), inc, before)
		}
		assertReadsMatchScan(t, step, readBattery(qrng, ws.s), inc, rec)
		// The store invariant, and verdict agreement under both null
		// conventions: TEST-FDs' weak convention (Theorem 3) must accept
		// both instances, and the strong convention (Theorem 2) must say
		// the same thing about both.
		if !inc.CheckWeak() || !rec.CheckWeak() {
			t.Fatalf("step %d: weak-convention invariant broken (inc=%v rec=%v):\n%s",
				step, inc.CheckWeak(), rec.CheckWeak(), inc.Snapshot())
		}
		if step%5 == 0 {
			if gi, gr := inc.CheckStrong(), rec.CheckStrong(); gi != gr {
				t.Fatalf("step %d: strong-convention verdicts diverged: incremental=%v recheck=%v\n%s",
					step, gi, gr, inc.Snapshot())
			}
		}
	}
	_, _, _, rej := inc.Stats()
	if rej == 0 {
		t.Logf("history %s/seed=%d rejected nothing; widen the doom window if this repeats", ws.name, seed)
	}
}

// TestHistoryDifferential replays randomized operation histories against
// both maintenance engines (HISTEX-style: the recheck engine is the
// oracle) over several workload shapes and seeds. `go test -short` runs
// a reduced matrix as the CI smoke.
func TestHistoryDifferential(t *testing.T) {
	seeds := []int64{1, 2, 3, 7, 11, 20260730}
	steps := 160
	if testing.Short() {
		seeds = seeds[:2]
		steps = 70
	}
	for _, ws := range histSchemes() {
		for _, seed := range seeds {
			ws, seed := ws, seed
			t.Run(fmt.Sprintf("%s/seed=%d", ws.name, seed), func(t *testing.T) {
				t.Parallel()
				runHistory(t, ws, seed, steps)
			})
		}
	}
}

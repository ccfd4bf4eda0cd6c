package eval

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"fdnull/internal/fd"
	"fdnull/internal/relation"
	"fdnull/internal/schema"
	"fdnull/internal/workload"
)

// The differential suite asserts the acceptance criterion of the indexed
// engine: verdict-for-verdict agreement with the naive ground truth on
// randomized relations with nulls, across every code path — the Proposition
// 1 fast path (complete instances and single-incomplete-tuple instances)
// and the general fallback (nulls spread over many tuples, shared marks).

// diffConfigs spans the regimes the engine distinguishes.
func diffConfigs() []workload.Config {
	return []workload.Config{
		// Complete instances: pure [T1]/[F1] fast path.
		{Seed: 1, Tuples: 14, Attrs: 3, DomainSize: 4, NullDensity: 0, GroupBias: 0.5},
		// Sparse nulls: mixes fast path and general fallback per tuple.
		{Seed: 2, Tuples: 10, Attrs: 3, DomainSize: 4, NullDensity: 0.08, GroupBias: 0.4},
		// Dense nulls with shared marks: exercises the naive delegation.
		// Kept small — the general path enumerates completions.
		{Seed: 3, Tuples: 5, Attrs: 3, DomainSize: 3, NullDensity: 0.2, GroupBias: 0.3, SharedMarkRate: 0.4},
		// Wider scheme, larger domain.
		{Seed: 4, Tuples: 12, Attrs: 4, DomainSize: 5, NullDensity: 0.05, GroupBias: 0.6},
	}
}

func diffFDs(s *schema.Scheme, seed int64) [][]fd.FD {
	return [][]fd.FD{
		workload.ChainFDs(s),
		workload.StarFDs(s),
		workload.KeyFD(s),
		workload.RandomFDs(s, 3, 2, seed),
	}
}

// nullifyOneTuple concentrates fresh nulls in a single random tuple so the
// [T2]/[T3]/[F2] branches of the fast path fire (the fast path needs every
// other tuple null-free on X∪Y). At most two cells are nullified to keep
// the exponential ground-truth paths tractable.
func nullifyOneTuple(rng *rand.Rand, r *relation.Relation) {
	if r.Len() == 0 {
		return
	}
	ti := rng.Intn(r.Len())
	added := 0
	for a := 0; a < r.Scheme().Arity() && added < 2; a++ {
		if rng.Intn(2) == 0 {
			r.SetCell(ti, schema.Attr(a), r.FreshNull())
			added++
		}
	}
}

func TestIndexedEngineAgreesWithNaivePerTuple(t *testing.T) {
	for ci, cfg := range diffConfigs() {
		s := cfg.Scheme()
		for variant := 0; variant < 4; variant++ {
			c := cfg
			c.Seed = cfg.Seed*100 + int64(variant)
			r := c.Instance(s)
			if variant%2 == 1 {
				nullifyOneTuple(rand.New(rand.NewSource(c.Seed)), r)
			}
			for fi, fds := range diffFDs(s, c.Seed) {
				for _, f := range fds {
					ck := newChecker(f, r)
					for ti := 0; ti < r.Len(); ti++ {
						want, wantErr := Evaluate(f, r, ti)
						got, gotErr := ck.evaluate(ti)
						if (wantErr == nil) != (gotErr == nil) {
							t.Fatalf("cfg %d variant %d fds %d %s tuple %d: naive err=%v indexed err=%v\n%s",
								ci, variant, fi, f.Format(s), ti, wantErr, gotErr, r)
						}
						if wantErr == nil && (got.Truth != want.Truth || got.Case != want.Case) {
							t.Fatalf("cfg %d variant %d fds %d %s tuple %d: naive %v indexed %v\n%s",
								ci, variant, fi, f.Format(s), ti, want, got, r)
						}
					}
				}
			}
		}
	}
}

// TestCheckAllAgreesAcrossEnginesAndWorkers holds every engine and
// worker count to the naive sequential run: on diffConfigs' small
// instances (nulls concentrated in one tuple), and on complete employee
// instances up to n = 1000 (4000 outside -short), where the naive
// engine's O(|F| n²) re-scans and the indexed engine's probes must still
// produce the same verdict matrix. The employee instances are complete
// because nulls spread across many tuples push both engines into the
// definition's exponential completion enumeration, which is not the path
// the two engines differ on.
func TestCheckAllAgreesAcrossEnginesAndWorkers(t *testing.T) {
	for ci, cfg := range diffConfigs() {
		s := cfg.Scheme()
		r := cfg.Instance(s)
		nullifyOneTuple(rand.New(rand.NewSource(cfg.Seed)), r)
		for fi, fds := range diffFDs(s, cfg.Seed) {
			assertCheckAllAgrees(t, fmt.Sprintf("cfg %d fds %d", ci, fi), s, fds, r,
				CheckOptions{Engine: EngineIndexed, Workers: 1},
				CheckOptions{Engine: EngineIndexed, Workers: 8},
				CheckOptions{Engine: EngineNaive, Workers: 4})
		}
	}
	sizes := []int{100, 250, 1000}
	if !testing.Short() {
		sizes = append(sizes, 2000, 4000)
	}
	for _, n := range sizes {
		t.Run(fmt.Sprintf("employees/n=%d", n), func(t *testing.T) {
			s, fds, r := workload.Employees(n, 8, 0, int64(n)+17)
			assertCheckAllAgrees(t, fmt.Sprintf("employees n=%d", n), s, fds, r,
				CheckOptions{Engine: EngineIndexed, Workers: 1},
				CheckOptions{Engine: EngineIndexed, Workers: runtime.GOMAXPROCS(0)})
		})
	}
}

// assertCheckAllAgrees runs CheckAll on the naive engine with one worker
// and then with each of opts, and fails unless every run has the same
// per-FD summaries and verdict matrix, and the batch aggregates agree
// with the sequential satisfaction API.
func assertCheckAllAgrees(t *testing.T, label string, s *schema.Scheme, fds []fd.FD, r *relation.Relation, opts ...CheckOptions) {
	t.Helper()
	base := CheckAll(fds, r, CheckOptions{Engine: EngineNaive, Workers: 1, KeepVerdicts: true})
	for ri, o := range opts {
		o.KeepVerdicts = true
		res := CheckAll(fds, r, o)
		for k := range base.Summaries {
			a, b := base.Summaries[k], res.Summaries[k]
			if (a.Err == nil) != (b.Err == nil) {
				t.Fatalf("%s run %d FD %s: error presence differs:\n%+v\n%+v",
					label, ri+1, fds[k].Format(s), a, b)
			}
			// On error the counts are partial and scheduling-dependent
			// (see FDSummary.Err); compare them only for error-free
			// summaries.
			if a.Err == nil && (a.True != b.True || a.Unknown != b.Unknown || a.False != b.False ||
				a.StrongHolds != b.StrongHolds || a.WeakHolds != b.WeakHolds ||
				a.FirstFalse != b.FirstFalse) {
				t.Fatalf("%s run %d FD %s: summaries differ:\n%+v\n%+v",
					label, ri+1, fds[k].Format(s), a, b)
			}
			if a.Err == nil {
				for ti := 0; ti < r.Len(); ti++ {
					if base.Verdicts[k][ti] != res.Verdicts[k][ti] {
						t.Fatalf("%s run %d FD %s tuple %d: %v vs %v",
							label, ri+1, fds[k].Format(s), ti,
							base.Verdicts[k][ti], res.Verdicts[k][ti])
					}
				}
			}
		}
		if base.AllStrong != res.AllStrong || base.AllWeak != res.AllWeak {
			t.Fatalf("%s run %d: aggregates differ", label, ri+1)
		}
	}
	// The batch aggregates must match the sequential satisfaction API.
	wantStrong, err1 := StrongSatisfied(fds, r)
	wantWeak, err2 := EachWeaklyHolds(fds, r)
	if err1 == nil && base.AllStrong != wantStrong {
		t.Fatalf("%s: AllStrong=%v, StrongSatisfied=%v", label, base.AllStrong, wantStrong)
	}
	if err2 == nil && base.AllWeak != wantWeak {
		t.Fatalf("%s: AllWeak=%v, EachWeaklyHolds=%v", label, base.AllWeak, wantWeak)
	}
}

// TestClassicalHoldsIndexedAgrees checks the index-partitioned classical
// test against the pair scan, including instances that retain nulls (the
// pair scan treats any null as never-equal; the grouped test must too).
func TestClassicalHoldsIndexedAgrees(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	dom := schema.IntDomain("d", "v", 3)
	s := schema.Uniform("R", []string{"A", "B", "C"}, dom)
	for trial := 0; trial < 300; trial++ {
		cfg := workload.Config{
			Seed: int64(trial), Tuples: 1 + rng.Intn(10), Attrs: 3,
			DomainSize: 3, NullDensity: float64(trial%4) * 0.1, GroupBias: 0.5,
		}
		r := cfg.Instance(s)
		for _, f := range workload.RandomFDs(s, 4, 2, int64(trial)) {
			if got, want := classicalHoldsIndexed(f, r), classicalHolds(f, r); got != want {
				t.Fatalf("trial %d %s: indexed=%v scan=%v\n%s", trial, f.Format(s), got, want, r)
			}
		}
	}
}

// TestSatisfactionAgainstDefinition re-verifies the rewritten StrongHolds/
// WeakHolds against the exponential least-extension definition on small
// instances — the same oracle the seed used for the naive engine.
func TestSatisfactionAgainstDefinition(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	dom := schema.IntDomain("d", "v", 3)
	s := schema.Uniform("R", []string{"A", "B"}, dom)
	f := fd.MustParse(s, "A -> B")
	for trial := 0; trial < 200; trial++ {
		cfg := workload.Config{
			Seed: int64(trial), Tuples: 1 + rng.Intn(4), Attrs: 2,
			DomainSize: 3, NullDensity: 0.25,
		}
		r := cfg.Instance(s)
		wantStrong, wantWeak := true, true
		feasible := true
		for ti := 0; ti < r.Len(); ti++ {
			v, err := Value(f, r, ti)
			if err != nil {
				feasible = false
				break
			}
			if !v.IsTrue() {
				wantStrong = false
			}
			if v.IsFalse() {
				wantWeak = false
			}
		}
		if !feasible {
			continue
		}
		if got, err := StrongHolds(f, r); err != nil || got != wantStrong {
			t.Fatalf("trial %d: StrongHolds=%v err=%v, definition says %v\n%s", trial, got, err, wantStrong, r)
		}
		if got, err := WeakHolds(f, r); err != nil || got != wantWeak {
			t.Fatalf("trial %d: WeakHolds=%v err=%v, definition says %v\n%s", trial, got, err, wantWeak, r)
		}
	}
}

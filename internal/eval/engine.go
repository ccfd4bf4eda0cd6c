// engine.go implements the indexed, batched, parallel evaluation engine.
//
// The naive evaluator (eval.go) re-scans the whole relation for every
// (FD, tuple) pair: Classify's match search is O(n) per tuple, so checking
// one FD is O(n²) and a set of FDs is O(|F| n²). The indexed engine keeps
// the same case analysis but answers "which tuples agree with t on X" by
// probing the relation's X-partition index (relation.Index), built once per
// distinct left-hand side and shared across FDs. CheckAll additionally fans
// the tuples×FDs grid out over a bounded worker pool with early
// cancellation, for batch verdicts over large instances.
//
// Every fast path shares classifyAgainstMatches with the naive evaluator
// and falls back to Evaluate whenever Proposition 1 does not apply, so the
// two engines agree verdict-for-verdict (differential_test.go asserts
// this on randomized workloads).
package eval

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"fdnull/internal/fd"
	"fdnull/internal/relation"
	"fdnull/internal/schema"
	"fdnull/internal/tvl"
)

// Engine selects an evaluation strategy.
type Engine int

const (
	// EngineIndexed evaluates through the X-partition index (the default).
	EngineIndexed Engine = iota
	// EngineNaive evaluates by Evaluate's linear re-scans; kept as the
	// ground truth the indexed engine is differentially tested against.
	EngineNaive
)

// String names the engine in report headers.
func (e Engine) String() string {
	switch e {
	case EngineIndexed:
		return "indexed"
	case EngineNaive:
		return "naive"
	}
	return fmt.Sprintf("Engine(%d)", int(e))
}

// checker holds the per-(FD, relation) state the indexed evaluator probes:
// the X-partition index and the null/nothing profile of the tuples on X∪Y.
// Building it costs one O(n·|X∪Y|) pass (the index is cached on the
// relation across checkers with the same left-hand side); each evaluate
// call is then a hash probe instead of a relation scan.
//
// A checker is immutable after construction and safe for concurrent use,
// provided the underlying relation is not mutated.
type checker struct {
	f      fd.FD
	r      *relation.Relation
	s      *schema.Scheme
	xy     schema.AttrSet
	idx    *relation.Index
	xyNull []bool // tuple has a null on X∪Y
	// Counts of tuples with a null / an inconsistent element on X∪Y.
	nullCount, nothingCount int
}

// newChecker builds the evaluation context for f over r.
func newChecker(f fd.FD, r *relation.Relation) *checker {
	c := &checker{
		f:   f,
		r:   r,
		s:   r.Scheme(),
		xy:  f.X.Union(f.Y),
		idx: r.IndexOn(f.X),
	}
	c.xyNull = make([]bool, r.Len())
	for i, t := range r.Tuples() {
		if t.HasNothingOn(c.xy) {
			c.nothingCount++
		}
		if t.HasNullOn(c.xy) {
			c.xyNull[i] = true
			c.nullCount++
		}
	}
	return c
}

// evaluate computes f(t, r) for the tuple at index ti with the same
// semantics (verdicts, cases, and errors) as Evaluate. The indexed fast
// path applies exactly when Classify's precondition holds — no inconsistent
// element on X∪Y and every tuple but t null-free there; anything else
// delegates to the naive general path, which is where the exponential
// completion enumeration lives anyway.
func (c *checker) evaluate(ti int) (Verdict, error) {
	othersClean := c.nullCount == 0 || (c.nullCount == 1 && c.xyNull[ti])
	if c.nothingCount == 0 && othersClean {
		if v, err := c.classify(ti); err == nil {
			return v, nil
		}
		// Classification failed (too many completions of t's own X-nulls);
		// Evaluate reproduces the naive engine's exact fallback behavior.
	}
	return Evaluate(c.f, c.r, ti)
}

// classify is Classify with the match search replaced by an index probe;
// preconditions are guaranteed by evaluate, so the precondition scan is
// skipped entirely.
func (c *checker) classify(ti int) (Verdict, error) {
	t := c.r.Tuple(ti)
	xComps := []relation.Tuple{t} // t is its own one X-completion
	if subst := xSubstSet(c.f, t); t.HasNullOn(subst) {
		var err error
		if xComps, err = relation.TupleCompletions(c.s, t, subst); err != nil {
			return Verdict{}, err
		}
	}
	truth := tvl.True            // the lub of no completions
	var matches []relation.Tuple // reused across completions
	for k, tc := range xComps {
		rows, ok := c.idx.Probe(tc)
		var v tvl.T
		if !ok {
			// Unreachable: tc is complete on X by construction.
			v = classifyXComplete(c.f, c.r, ti, tc)
		} else {
			matches = matches[:0]
			if len(rows) > 1 {
				matches = slices.Grow(matches, len(rows)-1)
			}
			for _, j := range rows {
				if j != ti {
					matches = append(matches, c.r.Tuple(j))
				}
			}
			v = classifyAgainstMatches(c.f, c.s, tc, matches)
		}
		if k == 0 {
			truth = v
		} else {
			truth = tvl.LubPair(truth, v)
		}
	}
	return Verdict{Truth: truth, Case: caseLabel(truth, len(t.NullsOn(c.f.X)), len(t.NullsOn(c.f.Y)))}, nil
}

// classicalHoldsIndexed is classicalHolds through the X-partition index:
// on an instance null-free on X∪Y, f holds classically iff within every
// group of X-equal tuples all tuples agree on Y. Comparing every group
// member against the first is sufficient — constant equality is transitive,
// and any null on Y (possible when callers pass partially complete
// instances) fails ConstEqOn exactly as it fails the pair scan.
func classicalHoldsIndexed(f fd.FD, r *relation.Relation) bool {
	hold := true
	r.IndexOn(f.X).ForEachGroup(func(rows []int) bool {
		first := r.Tuple(rows[0])
		for _, j := range rows[1:] {
			if !first.ConstEqOn(r.Tuple(j), f.Y) {
				hold = false
				return false
			}
		}
		return true
	})
	return hold
}

// EvaluateWith computes f(t, r) with the chosen engine. Both engines
// return identical verdicts; EngineIndexed amortizes better when many
// tuples of the same relation are evaluated (see CheckAll, StrongHolds).
func EvaluateWith(e Engine, f fd.FD, r *relation.Relation, ti int) (Verdict, error) {
	if e == EngineIndexed {
		return newChecker(f, r).evaluate(ti)
	}
	return Evaluate(f, r, ti)
}

// CheckOptions configures a CheckAll run. The zero value means: indexed
// engine, GOMAXPROCS workers, no early cancellation, no verdict matrix.
type CheckOptions struct {
	// Engine selects the per-tuple evaluator.
	Engine Engine
	// Workers bounds the worker pool; ≤0 means runtime.GOMAXPROCS(0).
	Workers int
	// EarlyCancel stops evaluating an FD's remaining tuples as soon as a
	// definitively false verdict is seen — at that point both the strong
	// and the weak verdict of the FD are decided. Summaries of a cancelled
	// FD report partial counts (Evaluated < tuple count).
	EarlyCancel bool
	// KeepVerdicts populates BatchResult.Verdicts with the full per-(FD,
	// tuple) matrix. Cells skipped by EarlyCancel stay zero-valued.
	KeepVerdicts bool
}

// FDSummary is the per-FD outcome of a CheckAll run.
type FDSummary struct {
	FD fd.FD
	// Verdict counts over the evaluated tuples.
	True, Unknown, False int
	// Evaluated is the number of tuples actually evaluated; less than the
	// relation size only when EarlyCancel fired or an error stopped the FD.
	Evaluated int
	// StrongHolds: every tuple evaluated to true (Section 4).
	StrongHolds bool
	// WeakHolds: no tuple evaluated to false. Note this is the per-FD
	// notion; set-level weak satisfiability is decided by the chase.
	WeakHolds bool
	// FirstFalse is the lowest evaluated tuple index with a false verdict,
	// or -1. Under EarlyCancel a lower-indexed false may exist unevaluated.
	FirstFalse int
	// Err is the first evaluation error; the FD's remaining tuples are
	// skipped once an error occurs, and both verdicts report false. Which
	// tuples were evaluated before the error landed depends on worker
	// scheduling, so on error the verdict counts are partial and not
	// reproducible across runs with Workers > 1.
	Err error
}

// BatchResult is the outcome of a CheckAll run.
type BatchResult struct {
	Engine    Engine
	Workers   int
	Tuples    int
	Summaries []FDSummary // one per FD, in input order
	// Verdicts is the [FD][tuple] matrix, only when KeepVerdicts was set.
	Verdicts [][]Verdict
	// AllStrong: every FD strongly holds (Theorem 1 allows testing the set
	// FD-by-FD). AllWeak: every FD weakly holds individually — the
	// Section 6 example shows this does NOT imply set-level weak
	// satisfiability; use the chase for that.
	AllStrong, AllWeak bool
}

// Err returns the first per-FD error, if any.
func (b *BatchResult) Err() error {
	for i := range b.Summaries {
		if err := b.Summaries[i].Err; err != nil {
			return err
		}
	}
	return nil
}

// CheckAll evaluates every (FD, tuple) pair of the batch, fanning the grid
// out over a bounded worker pool, and returns per-FD verdict summaries.
// Checkers (and the X-partition indexes they share) are built up front, so
// workers only read immutable state; the relation must not be mutated
// while CheckAll runs.
func CheckAll(fds []fd.FD, r *relation.Relation, opts CheckOptions) *BatchResult {
	n := r.Len()
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	res := &BatchResult{
		Engine:    opts.Engine,
		Workers:   workers,
		Tuples:    n,
		Summaries: make([]FDSummary, len(fds)),
	}
	for i, f := range fds {
		res.Summaries[i] = FDSummary{FD: f, FirstFalse: -1}
	}
	if opts.KeepVerdicts {
		res.Verdicts = make([][]Verdict, len(fds))
		for i := range res.Verdicts {
			res.Verdicts[i] = make([]Verdict, n)
		}
	}

	// Per-FD evaluators, built serially so the worker pool shares
	// immutable checker state.
	evals := make([]func(ti int) (Verdict, error), len(fds))
	for i, f := range fds {
		if opts.Engine == EngineNaive {
			f := f
			evals[i] = func(ti int) (Verdict, error) { return Evaluate(f, r, ti) }
		} else {
			evals[i] = newChecker(f, r).evaluate
		}
	}

	type fdState struct {
		mu        sync.Mutex
		cancelled atomic.Bool
	}
	states := make([]fdState, len(fds))
	total := int64(len(fds)) * int64(n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := next.Add(1) - 1
				if k >= total {
					return
				}
				fi, ti := int(k/int64(n)), int(k%int64(n))
				st := &states[fi]
				if st.cancelled.Load() {
					continue
				}
				v, err := evals[fi](ti)
				st.mu.Lock()
				sum := &res.Summaries[fi]
				switch {
				case st.cancelled.Load():
					// Raced with a cancelling verdict; drop the result so
					// counts stay consistent with Evaluated.
				case err != nil:
					if sum.Err == nil {
						sum.Err = err
					}
					st.cancelled.Store(true)
				default:
					sum.Evaluated++
					switch v.Truth {
					case tvl.True:
						sum.True++
					case tvl.Unknown:
						sum.Unknown++
					case tvl.False:
						sum.False++
						if sum.FirstFalse == -1 || ti < sum.FirstFalse {
							sum.FirstFalse = ti
						}
						if opts.EarlyCancel {
							st.cancelled.Store(true)
						}
					}
					if opts.KeepVerdicts {
						res.Verdicts[fi][ti] = v
					}
				}
				st.mu.Unlock()
			}
		}()
	}
	wg.Wait()

	res.AllStrong, res.AllWeak = true, true
	for i := range res.Summaries {
		sum := &res.Summaries[i]
		sum.StrongHolds = sum.Err == nil && sum.Evaluated == n && sum.True == n
		sum.WeakHolds = sum.Err == nil && sum.False == 0 && sum.Evaluated == n
		res.AllStrong = res.AllStrong && sum.StrongHolds
		res.AllWeak = res.AllWeak && sum.WeakHolds
	}
	return res
}

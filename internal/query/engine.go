// engine.go implements the indexed, batched selection engine.
//
// The naive Select full-scans the source per predicate: O(n) Eval calls
// whatever the predicate's selectivity. The indexed engine (plan.go)
// compiles an algebraic plan over the source's X-partition indexes —
// the smallest exactly sized Eq/In probe of the ∧-spine (attr1 = attr2
// is residual only), ∨ as a deduplicated union of sub-plans, residual
// conjuncts ordered by their probes' sizes — so the full predicate runs
// on the plan's candidates alone. SelectAll fans a batch of predicates
// over a bounded worker pool, mirroring eval.CheckAll.
//
// Both engines return identical Results (ascending tuple order);
// differential_test.go asserts it on randomized workloads including
// shared marks and `!` cells, with per-tuple EvalBrute as the oracle.
package query

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"fdnull/internal/relation"
	"fdnull/internal/schema"
)

// Engine selects a selection strategy.
type Engine int

const (
	// EngineIndexed compiles algebraic plans — a probe or a union of
	// probes over X-partition indexes, size-ordered residuals (plan.go) —
	// falling back to the scan when the predicate offers no plannable
	// structure. The default.
	EngineIndexed Engine = iota
	// EngineNaive always evaluates by the full scan; kept as the ground
	// truth the planner is differentially tested against.
	EngineNaive
)

// String names the engine in plan reports.
func (e Engine) String() string {
	switch e {
	case EngineIndexed:
		return "indexed"
	case EngineNaive:
		return "naive"
	}
	return fmt.Sprintf("Engine(%d)", int(e))
}

// Indexer is the optional capability of a Source the planner needs:
// X-partition indexes over the same tuples All() yields.
// *relation.Relation provides it from its index cache, which the delta
// mutators keep fresh across writes — the store answers selections on
// its live relation for exactly that reason. IndexOn builds an index on
// first use; CachedIndexes lists the fresh ones already cached, which
// the planner reads and never builds (a multi-attribute left-hand
// side's, kept by the write path). A relation.View is not an Indexer: a
// snapshot has no indexes to maintain, and selections over one scan.
type Indexer interface {
	IndexOn(set schema.AttrSet) *relation.Index
	CachedIndexes(dst []*relation.Index) []*relation.Index
}

// Options configure SelectWith and SelectAll. The zero value means:
// indexed engine, GOMAXPROCS workers.
type Options struct {
	// Engine selects the per-predicate strategy.
	Engine Engine
	// Workers bounds SelectAll's worker pool; ≤0 means
	// runtime.GOMAXPROCS(0). SelectWith evaluates one predicate and
	// ignores it.
	Workers int
}

// SelectWith evaluates one predicate with the chosen engine. The
// indexed engine requires the source to be an Indexer and the
// predicate to carry plannable structure; otherwise it degrades to the
// scan, so the verdicts are engine-independent by construction.
func SelectWith(src Source, p Pred, opts Options) Result {
	var res Result
	SelectInto(src, p, opts, &res)
	return Result{Sure: res.Sure, Maybe: res.Maybe} // the planner is not kept
}

// SelectInto is SelectWith into res, which it empties and refills (see
// Result). The planner res kept from its last call compiles p again in
// its own scratch, so through a reused Result a read allocates nothing
// that grows with its answer. Before it returns the planner lets go of
// p and of src's indexes; it keeps only its buffers.
func SelectInto(src Source, p Pred, opts Options, res *Result) {
	ix, ok := plannerSource(src, opts.Engine)
	if !ok {
		scan(src, p, res)
		return
	}
	if res.plan == nil {
		res.plan = new(Plan)
	}
	res.plan.compile(src, ix, p)
	res.plan.Run(src, res)
	res.plan.release()
}

// plannerSource reports whether the engine plans at all and the source
// supports it.
func plannerSource(src Source, e Engine) (Indexer, bool) {
	if e != EngineIndexed {
		return nil, false
	}
	ix, ok := src.(Indexer)
	return ix, ok
}

// SelectAll evaluates every predicate of the batch over one source,
// fanning the predicates out over a pool of at most Options.Workers
// goroutines (never more than the batch), and returns the results in
// input order. Index builds are shared through the source's index cache
// (relation.IndexOn serializes them internally), so workers only ever
// read immutable state; the source must not be mutated while SelectAll
// runs.
func SelectAll(src Source, preds []Pred, opts Options) []Result {
	out := make([]Result, len(preds))
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(preds) {
		workers = len(preds)
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(preds) {
					return
				}
				out[i] = SelectWith(src, preds[i], opts)
			}
		}()
	}
	wg.Wait()
	return out
}

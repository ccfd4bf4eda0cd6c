// query.go implements the store's FD-aware read path: three-valued
// selections evaluated on the live relation, through the X-partition
// indexes the write path already keeps fresh.
//
// Querying a *store* is strictly sharper than querying the raw input
// relation, because the stored instance is always in chase normal form
// (minimally incomplete): every null the dependencies force has been
// substituted, and nulls one NEC class proved equal share one mark. The
// analytic atoms then *decide* comparisons raw data leaves open —
// attr1 = attr2 is true on equal marks (one unknown value), attr = c
// and attr ∈ S resolve by domain exhaustion — promoting answers from
// Maybe to Sure with no enumeration. query_test.go pins this refinement
// against per-tuple query.EvalBrute as the oracle.
//
// There is one index structure per relation and no cache in front of it.
// A selection plans over Relation.IndexOn, whose indexes the delta
// mutators (relation/delta.go) update in place at O(touched group) per
// write, so a read that follows a write probes a fresh index instead of
// rebuilding one; it holds the store's read lock for its own length, the
// contract CheckWeak, CheckStrong and Len already have. Three things are
// given up for that, deliberately:
//
//   - a *repeated identical* predicate at an unchanged version is
//     planned and probed again rather than answered from a result map
//     (8–9 % of the benchmark's mixed workload's reads and under 1 % of
//     its read-only one's were such repeats when the map was removed);
//   - evaluation is not lock-free: a selection holds its shard's read
//     lock for microseconds when a probe answers it and for O(n) when
//     the predicate offers the planner nothing. A long analysis that
//     must not hold the lock takes View() and runs query.Select on it,
//     as discover and check do;
//   - an index a read caused to be built persists and is maintained by
//     every later write. The planner builds singleton sets only, and
//     such an index is rebuilt exactly when the write path's own are:
//     after a recheck adopt. A multi-attribute FD left-hand side's index
//     it only reads, when the write path already keeps it fresh
//     (Relation.CachedIndexes).
package store

import "fdnull/internal/query"

// Query evaluates a three-valued selection over the stored (minimally
// incomplete) instance. Sure lists tuples in the answer under every
// completion of the stored instance, Maybe under some; the chase
// normalization behind the store means FD-forced values and NEC-shared
// marks sharpen answers raw inputs would leave Maybe. Indices address
// the instance as it is now and go stale with the next mutation. It runs
// under the read lock: readers proceed in parallel with each other, and
// a writer waits for the selections in flight.
func (st *Store) Query(p query.Pred) query.Result {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return query.SelectWith(st.rel, p, query.Options{})
}

// QueryCacheStats reports how the relation's X-partition indexes served
// the store so far: IndexOn calls — the planner's and the write path's —
// answered by a fresh index (hits), and calls that had to build one
// (misses). On the incremental engine misses stop growing once every
// attribute set in use has been asked for; growth beside accepted
// writes means an index is being rebuilt.
func (st *Store) QueryCacheStats() (hits, misses uint64) {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return st.rel.IndexCounts()
}

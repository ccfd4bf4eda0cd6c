// plan.go implements the algebraic selection planner of the indexed
// engine. It compiles the predicate into an algebraic plan over
// candidate row sets:
//
//   - every indexable atom of the ∧-spine becomes a *probe* node — the
//     index groups its constants select plus the null sidecar, exactly
//     the tuples on which the atom can evaluate non-false;
//   - an ∧ of several probes becomes an *intersect* node: a tuple on
//     which any conjunct is false makes the whole conjunction false
//     (strong-Kleene ∧ is the truth-order meet), so the candidates are
//     the intersection of the conjuncts' candidate sets, intersected
//     smallest-estimate-first — and a probe is only materialized while
//     it pays for itself (intersection over any subset of the conjuncts
//     is sound, so unselective probes stay in the residual instead of
//     being gathered and sorted);
//   - an ∨ whose arms are all plannable becomes a *union* node: a tuple
//     on which the disjunction is non-false is non-false on some arm,
//     so the candidates are the deduplicated union of the arms' sets;
//   - the residual ∧-conjuncts are ordered by estimated selectivity —
//     cheapest-to-falsify first — using the partition statistics
//     (relation.IndexStats) the probes' indexes maintain, and evaluated
//     with an early exit on the first false conjunct.
//
// Soundness of every node is the superset property: a probe's set
// contains every tuple on which its atom can be true or unknown, an
// intersection of supersets (over any subset of the conjuncts) is a
// superset for the conjunction, and a union of supersets is a superset
// for the disjunction. The full predicate is still evaluated on every
// candidate, so estimates steer cost only — never verdicts. Tuples in a
// probed index's nothing sidecar are contradictory and false for every
// predicate by the package convention, so no plan visits them;
// contradictions off the probed sets are dropped by the per-candidate
// guard. A predicate offering no plannable structure falls back to the
// scan.
//
// Run reads the candidates 64 at a time. A cold candidate is three
// dependent loads — its tuple header, its cells, its constants' bytes in
// the domain's string — and evaluated row by row they miss one after
// another; a block's loads are issued together first (see Run).
package query

import (
	"cmp"
	"runtime"
	"slices"

	"fdnull/internal/relation"
	"fdnull/internal/schema"
	"fdnull/internal/tvl"
	"fdnull/internal/value"
)

// conjuncts appends the ∧-spine leaves of p to out: And descends, every
// other shape (atoms, ¬, ∨) is a leaf. Only leaves that are atoms or
// plannable disjunctions map onto candidate sets, but a false leaf of
// any shape still falsifies the whole conjunction.
func conjuncts(p Pred, out []Pred) []Pred {
	if a, ok := p.(And); ok {
		return conjuncts(a.Q, conjuncts(a.P, out))
	}
	return append(out, p)
}

// SpineEq reports the constant an Eq atom of p's ∧-spine compares a
// with (the first such atom, left to right). When ok, p is false on
// every tuple holding a different constant on a: a false conjunct
// falsifies the conjunction. In, ¬, ∨ and foreign Preds are opaque
// leaves, as for conjuncts; nothing is allocated.
func SpineEq(p Pred, a schema.Attr) (c string, ok bool) {
	switch q := p.(type) {
	case And:
		if c, ok = SpineEq(q.P, a); ok {
			return c, true
		}
		return SpineEq(q.Q, a)
	case Eq:
		return q.Const, q.Attr == a
	}
	return "", false
}

// disjuncts appends the ∨-spine leaves of p to out, mirroring conjuncts.
func disjuncts(p Pred, out []Pred) []Pred {
	if o, ok := p.(Or); ok {
		return disjuncts(o.Q, disjuncts(o.P, out))
	}
	return append(out, p)
}

// Plan node operators.
const (
	opProbe     = "probe"
	opIntersect = "intersect"
	opUnion     = "union"
)

// planNode is one operator of an algebraic plan. Candidates are
// materialized at plan time: rows is ascending and duplicate-free, and
// est is the statistics-based estimate that ordered the node.
type planNode struct {
	op   string
	atom Pred  // probes: the pushed atom; Explain renders it when asked
	est  int   // estimated candidate count from relation.IndexStats
	rows []int // materialized candidates, ascending, deduplicated
	kids []*planNode
}

// residualConjunct is one ∧-spine leaf with its selectivity estimate —
// the fraction of source tuples on which it is expected non-false, the
// key the residual evaluation order sorts by.
type residualConjunct struct {
	pred Pred
	frac float64
}

// Plan is a compiled selection: a candidate-acquisition tree plus a
// selectivity-ordered residual. A nil root means no structure was
// plannable and Run performs the full scan.
type Plan struct {
	pred     Pred
	root     *planNode
	residual []residualConjunct
	n        int // source length at plan time
}

// planSketch is a node before materialization: the statistics-based
// estimate alone, with build deferred. Intersections use the estimates
// to decide which probes are worth materializing at all — a probe whose
// candidate set is a large fraction of the source costs O(est) to
// gather and sort yet can only drop candidates a cheaper probe already
// bounds, so it is cheaper to leave its atom to the residual.
type planSketch struct {
	est   int
	build func() *planNode
}

// PlanPred compiles p over src's indexes. It always returns a plan;
// when nothing is plannable the plan is the full scan.
func PlanPred(src Source, ix Indexer, p Pred) *Plan {
	pl := &Plan{pred: p, n: src.Len()}
	leaves := conjuncts(p, nil)
	var kids []planSketch
	sketchOf := make([]*planSketch, len(leaves))
	for i, leaf := range leaves {
		if sk, ok := sketchFor(src, ix, leaf); ok {
			sk := sk
			sketchOf[i] = &sk
			kids = append(kids, sk)
		}
	}
	switch len(kids) {
	case 0:
		return pl // scan fallback
	case 1:
		pl.root = kids[0].build()
	default:
		pl.root = intersectSketch(kids).build()
	}
	// Residual order: every ∧-spine leaf, cheapest-to-falsify first.
	// Leaves without an estimate keep their original relative order at
	// the back (stable sort).
	pl.residual = make([]residualConjunct, len(leaves))
	for i, leaf := range leaves {
		frac := 1.0
		if sketchOf[i] != nil && pl.n > 0 {
			frac = float64(sketchOf[i].est) / float64(pl.n)
		}
		pl.residual[i] = residualConjunct{pred: leaf, frac: frac}
	}
	slices.SortStableFunc(pl.residual, func(a, b residualConjunct) int { return cmp.Compare(a.frac, b.frac) })
	return pl
}

// sketchFor compiles one predicate into a deferred candidate node, or
// reports ok = false when the shape offers no index structure. And
// yields the intersection of its plannable conjuncts (sound for any
// subset — intersecting supersets of a subset of the conjuncts still
// contains every tuple where the whole conjunction is non-false); Or
// requires *every* arm plannable (a tuple can satisfy the disjunction
// through an unplanned arm alone, so a partial union would be unsound).
func sketchFor(src Source, ix Indexer, p Pred) (planSketch, bool) {
	switch q := p.(type) {
	case And:
		var kids []planSketch
		for _, leaf := range conjuncts(q, nil) {
			if sk, ok := sketchFor(src, ix, leaf); ok {
				kids = append(kids, sk)
			}
		}
		switch len(kids) {
		case 0:
			return planSketch{}, false
		case 1:
			return kids[0], true
		}
		return intersectSketch(kids), true
	case Or:
		arms := disjuncts(q, nil)
		kids := make([]planSketch, len(arms))
		est := 0
		for i, arm := range arms {
			sk, ok := sketchFor(src, ix, arm)
			if !ok {
				return planSketch{}, false
			}
			kids[i] = sk
			est += sk.est
		}
		if n := src.Len(); est > n {
			est = n
		}
		return planSketch{est: est, build: func() *planNode {
			built := make([]*planNode, len(kids))
			for i, sk := range kids {
				built[i] = sk.build()
			}
			return unionNode(est, built)
		}}, true
	case Eq:
		return sketchEq(src, ix, q.Attr, []string{q.Const}, p), true
	case In:
		// Dedupe at plan time: repeated values would probe the same
		// group twice, double-counting candidates in cost and evaluation.
		vals := slices.Clone(q.Values)
		slices.Sort(vals)
		return sketchEq(src, ix, q.Attr, slices.Compact(vals), p), true
	case EqAttr:
		if q.A == q.B {
			return planSketch{}, false // true on every non-contradictory tuple; no probe
		}
		return sketchEqAttr(src, ix, q), true
	}
	return planSketch{}, false
}

// sketchEq sketches the probe node of attr ∈ vals (attr = c is the
// singleton case): the groups keyed by each value plus the null sidecar
// (a null on the attribute can complete to any constant). Values
// outside the attribute's domain still probe — the group is simply
// absent. The estimate is vals' worth of average groups plus the
// sidecar, from the index's statistics.
func sketchEq(src Source, ix Indexer, attr schema.Attr, vals []string, atom Pred) planSketch {
	idx := ix.IndexOn(schema.NewAttrSet(attr))
	st := idx.Stats()
	est := min(st.Rows, len(vals)*st.AvgGroup()) + st.Nulls
	return planSketch{est: est, build: func() *planNode {
		probe := make(relation.Tuple, src.Scheme().Arity())
		var rows []int
		for _, c := range vals {
			probe[attr] = value.NewConst(c)
			if g, ok := idx.Probe(probe); ok {
				rows = append(rows, g...)
			}
		}
		rows = append(rows, idx.NullRows()...)
		slices.Sort(rows) // distinct groups and the sidecar are disjoint: no dupes
		return &planNode{op: opProbe, atom: atom, est: est, rows: rows}
	}}
}

// sketchEqAttr sketches the probe node of attr1 = attr2: the groups of
// the pair index whose two constants agree (every row of a group shares
// the projection, so the first row decides), plus the null sidecar. The
// estimate assumes uniform independent values: about 1 in
// min(|dom1|, |dom2|) rows agree.
func sketchEqAttr(src Source, ix Indexer, a EqAttr) planSketch {
	idx := ix.IndexOn(schema.NewAttrSet(a.A, a.B))
	st := idx.Stats()
	s := src.Scheme()
	d := min(s.Domain(a.A).Size(), s.Domain(a.B).Size())
	est := st.Rows/max(d, 1) + st.Nulls
	return planSketch{est: est, build: func() *planNode {
		var rows []int
		idx.ForEachGroup(func(g []int) bool {
			t := src.Tuple(g[0])
			if t[a.A].Const() == t[a.B].Const() {
				rows = append(rows, g...)
			}
			return true
		})
		rows = append(rows, idx.NullRows()...)
		slices.Sort(rows)
		return &planNode{op: opProbe, atom: a, est: est, rows: rows}
	}}
}

// intersectSketch intersects its children smallest-estimate-first, and
// materializes a child only while it pays for itself: gathering a probe
// touches ~est rows to drop at most |current| candidates, so once a
// child's estimate exceeds 4× the running candidate count the residual
// evaluation of its atom on the extra candidates is cheaper than the
// probe. The children are est-sorted, so the first child that fails the
// test ends the loop. Skipped conjuncts still falsify candidates in the
// residual — the intersection over the materialized subset stays a
// superset of the conjunction's non-false rows.
func intersectSketch(kids []planSketch) planSketch {
	slices.SortStableFunc(kids, func(a, b planSketch) int { return a.est - b.est })
	est := kids[0].est
	return planSketch{est: est, build: func() *planNode {
		built := []*planNode{kids[0].build()}
		rows := built[0].rows
		for _, k := range kids[1:] {
			if k.est > 4*max(len(rows), 1) {
				break
			}
			kn := k.build()
			built = append(built, kn)
			rows = intersectSorted(rows, kn.rows)
		}
		if len(built) == 1 {
			return built[0]
		}
		return &planNode{op: opIntersect, est: est, rows: rows, kids: built}
	}}
}

// unionNode unions its arms into a deduplicated ascending candidate
// set; the estimate (arms' sum capped at the source size) is computed
// at sketch time and passed in.
func unionNode(est int, arms []*planNode) *planNode {
	var rows []int
	for _, a := range arms {
		rows = append(rows, a.rows...)
	}
	slices.Sort(rows)
	rows = slices.Compact(rows)
	return &planNode{op: opUnion, est: est, rows: rows, kids: arms}
}

// intersectSorted returns the intersection of two ascending
// duplicate-free slices, ascending, in a fresh slice.
func intersectSorted(a, b []int) []int {
	if len(b) < len(a) {
		a, b = b, a
	}
	out := make([]int, 0, len(a))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}

// runBlock is how many candidates Run gathers before it evaluates them.
const runBlock = 64

// Run evaluates the plan: the full predicate on the root's candidates
// (ascending, so the Result is ascending), or the scan when nothing was
// plannable. With a residual order in place the ∧-spine is folded
// conjunct by conjunct with an early exit on the first false — sound
// because strong-Kleene ∧ is commutative, associative, and
// false-absorbing, so any evaluation order yields the same meet.
//
// The candidates go in blocks of runBlock on the stack: gather the
// block's tuple headers, read every cell and the first byte of every
// constant, then evaluate. The first two passes are short loops of
// independent loads, so the block's cache misses overlap instead of
// waiting one per load between long evaluations, and the evaluation and
// the caller's rendering of the answer read warm lines. The bytes read
// go into a local fold kept by runtime.KeepAlive: unused, the fold and
// its loads would be deleted, and a package variable would race between
// concurrent selections. Verdicts and order are the row-by-row loop's.
func (pl *Plan) Run(src Source) Result {
	if pl.root == nil {
		return Select(src, pl.pred)
	}
	s := src.Scheme()
	var res Result
	var block [runBlock]relation.Tuple
	var fold byte
	rows := pl.root.rows
	for lo := 0; lo < len(rows); lo += runBlock {
		ids := rows[lo:min(lo+runBlock, len(rows))]
		ts := block[:len(ids)]
		for j, i := range ids {
			ts[j] = src.Tuple(i)
		}
		for _, t := range ts {
			for _, v := range t {
				if v.IsConst() {
					if c := v.Const(); c != "" {
						fold += c[0]
					}
				}
			}
		}
		for j, t := range ts {
			if contradictory(s, t) {
				continue
			}
			v := tvl.True
			for _, rc := range pl.residual {
				w := evalRaw(s, t, rc.pred)
				if w == tvl.False {
					v = tvl.False
					break
				}
				v = tvl.And(v, w)
			}
			switch v {
			case tvl.True:
				res.Sure = append(res.Sure, ids[j])
			case tvl.Unknown:
				res.Maybe = append(res.Maybe, ids[j])
			}
		}
	}
	runtime.KeepAlive(fold)
	return res
}

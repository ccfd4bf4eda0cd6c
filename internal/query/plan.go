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
//
// Who owns what. A node's candidates are copied into its own buffer, so
// a plan never aliases its source's indexes, and Run appends the answer
// into a Result its caller owns. SelectInto keeps the Plan inside that
// Result: compiled again, it reuses its slices, its nodes and their
// buffers, so a reader that passes the same Result every time — the
// daemon's connection does — allocates nothing that grows with an
// answer. Between calls it holds no predicate and no index, only buffers,
// whose size Result.ScratchBytes reports.
package query

import (
	"cmp"
	"runtime"
	"slices"
	"unsafe"

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
// est is the statistics-based estimate that ordered the node. rows is
// the node's own buffer, kept when the node is handed out again.
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
// plannable and Run performs the full scan. The last five fields are
// the scratch a Plan compiled again reuses (see "Who owns what" above).
type Plan struct {
	pred     Pred
	root     *planNode
	residual []residualConjunct
	n        int // source length at plan time

	leaves   []Pred         // the ∧-spine leaves
	sketches []planSketch   // the plannable leaves' sketches
	probe    relation.Tuple // a probe's key tuple
	nodes    []*planNode    // every node built so far, handed out in order
	used     int            // nodes handed out by this compile
}

// planSketch is a node before materialization: the statistics-based
// estimate alone, with build deferred. Intersections use the estimates
// to decide which probes are worth materializing at all — a probe whose
// candidate set is a large fraction of the source costs O(est) to
// gather and sort yet can only drop candidates a cheaper probe already
// bounds, so it is cheaper to leave its atom to the residual.
type planSketch struct {
	op   string
	est  int
	atom Pred            // probes: the Eq, In or EqAttr pushed
	idx  *relation.Index // probes: the index the atom probes
	vals []string        // In probes: the values, sorted and deduplicated
	kids []planSketch    // intersections (est-ascending) and unions
}

// PlanPred compiles p over src's indexes. It always returns a plan;
// when nothing is plannable the plan is the full scan.
func PlanPred(src Source, ix Indexer, p Pred) *Plan {
	pl := new(Plan)
	pl.compile(src, ix, p)
	return pl
}

// compile plans p into pl, reusing the scratch of pl's last compile.
func (pl *Plan) compile(src Source, ix Indexer, p Pred) {
	pl.pred, pl.root, pl.n, pl.used = p, nil, src.Len(), 0
	pl.leaves = conjuncts(p, pl.leaves[:0])
	kids := slices.Grow(pl.sketches[:0], len(pl.leaves))
	pl.residual = slices.Grow(pl.residual[:0], len(pl.leaves))
	// Residual order: every ∧-spine leaf, cheapest-to-falsify first.
	// Leaves without an estimate keep their original relative order at
	// the back (stable sort).
	for _, leaf := range pl.leaves {
		frac := 1.0
		if sk, ok := sketchFor(src, ix, leaf); ok {
			kids = append(kids, sk)
			if pl.n > 0 {
				frac = float64(sk.est) / float64(pl.n)
			}
		}
		pl.residual = append(pl.residual, residualConjunct{pred: leaf, frac: frac})
	}
	pl.sketches = kids
	switch len(kids) {
	case 0:
		return // scan fallback
	case 1:
		pl.root = pl.build(src, kids[0])
	default:
		pl.root = pl.build(src, intersectSketch(kids))
	}
	slices.SortStableFunc(pl.residual, func(a, b residualConjunct) int { return cmp.Compare(a.frac, b.frac) })
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
		for _, leaf := range conjuncts(p, nil) {
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
		arms := disjuncts(p, nil)
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
		return planSketch{op: opUnion, est: min(est, src.Len()), kids: kids}, true
	case Eq:
		return sketchEq(ix, q.Attr, nil, p), true
	case In:
		// Dedupe at plan time: repeated values would probe the same
		// group twice, double-counting candidates in cost and evaluation.
		vals := slices.Clone(q.Values)
		slices.Sort(vals)
		return sketchEq(ix, q.Attr, slices.Compact(vals), p), true
	case EqAttr:
		if q.A == q.B {
			return planSketch{}, false // true on every non-contradictory tuple; no probe
		}
		return sketchEqAttr(src, ix, q), true
	}
	return planSketch{}, false
}

// sketchEq sketches the probe node of attr ∈ vals, or of attr = c when
// vals is nil: the groups keyed by each value plus the null sidecar (a
// null on the attribute can complete to any constant). Values outside
// the attribute's domain still probe — the group is simply absent. The
// estimate is the values' worth of average groups plus the sidecar,
// from the index's statistics.
func sketchEq(ix Indexer, attr schema.Attr, vals []string, atom Pred) planSketch {
	idx := ix.IndexOn(schema.NewAttrSet(attr))
	st := idx.Stats()
	est := min(st.Rows, max(len(vals), 1)*st.AvgGroup()) + st.Nulls
	return planSketch{op: opProbe, est: est, atom: atom, idx: idx, vals: vals}
}

// sketchEqAttr sketches the probe node of attr1 = attr2 over the pair
// index. The estimate assumes uniform independent values: about 1 in
// min(|dom1|, |dom2|) rows agree.
func sketchEqAttr(src Source, ix Indexer, a EqAttr) planSketch {
	idx := ix.IndexOn(schema.NewAttrSet(a.A, a.B))
	st := idx.Stats()
	s := src.Scheme()
	d := min(s.Domain(a.A).Size(), s.Domain(a.B).Size())
	return planSketch{op: opProbe, est: st.Rows/max(d, 1) + st.Nulls, atom: a, idx: idx}
}

// intersectSketch intersects its children smallest-estimate-first (it
// sorts kids in place), and materializes a child only while it pays for
// itself: gathering a probe touches ~est rows to drop at most |current|
// candidates, so once a child's estimate exceeds 4× the running
// candidate count the residual evaluation of its atom on the extra
// candidates is cheaper than the probe. The children are est-sorted, so
// the first child that fails the test ends the loop. Skipped conjuncts
// still falsify candidates in the residual — the intersection over the
// materialized subset stays a superset of the conjunction's non-false
// rows.
func intersectSketch(kids []planSketch) planSketch {
	slices.SortStableFunc(kids, func(a, b planSketch) int { return a.est - b.est })
	return planSketch{op: opIntersect, est: kids[0].est, kids: kids}
}

// node hands out pl's next node, reset but for its emptied buffers; the
// pool grows by one when this compile has used every node the earlier
// ones built.
func (pl *Plan) node(op string, atom Pred, est int) *planNode {
	if pl.used == len(pl.nodes) {
		pl.nodes = append(pl.nodes, new(planNode))
	}
	n := pl.nodes[pl.used]
	pl.used++
	*n = planNode{op: op, atom: atom, est: est, rows: n.rows[:0], kids: n.kids[:0]}
	return n
}

// release drops every reference the last compile took — predicates,
// whose constants may be substrings of the caller's text, indexes,
// children — and keeps the buffers.
func (pl *Plan) release() {
	clear(pl.leaves)
	clear(pl.sketches)
	clear(pl.residual)
	clear(pl.probe)
	for _, n := range pl.nodes[:pl.used] {
		n.atom = nil
		clear(n.kids)
	}
	pl.pred, pl.root = nil, nil
}

// ScratchBytes is the size of the arrays r keeps for the next call: its
// lists' capacity and its planner's buffers. A caller that reuses one
// Result can drop it once this grows past what it wants to keep.
func (r *Result) ScratchBytes() int {
	const word = int(unsafe.Sizeof(0))
	b := (cap(r.Sure) + cap(r.Maybe)) * word
	if pl := r.plan; pl != nil {
		b += int(unsafe.Sizeof(*pl)) + cap(pl.nodes)*word +
			cap(pl.leaves)*int(unsafe.Sizeof(Pred(nil))) +
			cap(pl.sketches)*int(unsafe.Sizeof(planSketch{})) +
			cap(pl.residual)*int(unsafe.Sizeof(residualConjunct{})) +
			cap(pl.probe)*int(unsafe.Sizeof(value.V{}))
		for _, n := range pl.nodes {
			b += int(unsafe.Sizeof(*n)) + (cap(n.rows)+cap(n.kids))*word
		}
	}
	return b
}

// build materializes a sketch into a node, its candidates in the node's
// own buffer. An intersection with one child worth materializing is that
// child.
func (pl *Plan) build(src Source, sk planSketch) *planNode {
	n := pl.node(sk.op, sk.atom, sk.est)
	switch sk.op {
	case opProbe:
		n.rows = pl.probeRows(src, sk, n.rows)
	case opUnion:
		for _, k := range sk.kids {
			kn := pl.build(src, k)
			n.kids = append(n.kids, kn)
			n.rows = append(n.rows, kn.rows...)
		}
		slices.Sort(n.rows)
		n.rows = slices.Compact(n.rows)
	case opIntersect:
		first := pl.build(src, sk.kids[0])
		n.kids = append(n.kids, first)
		rows := first.rows
		for _, k := range sk.kids[1:] {
			if k.est > 4*max(len(rows), 1) {
				break
			}
			kn := pl.build(src, k)
			n.kids = append(n.kids, kn)
			n.rows = intersectSorted(n.rows[:0], rows, kn.rows)
			rows = n.rows
		}
		if len(n.kids) == 1 {
			return first
		}
	}
	return n
}

// probeRows appends a probe's candidates to rows, sorted. attr = c and
// attr ∈ S take the groups keyed by their values plus the null sidecar;
// attr1 = attr2 takes the pair index's groups whose two constants agree
// (every row of a group shares the projection, so the first row
// decides), plus the sidecar. The groups are copied and sorted: a delta
// mutation can leave a group out of order (taking a row out swaps the
// group's last into its slot; DeleteDelta also renumbers a row), and
// the candidates must be ascending.
func (pl *Plan) probeRows(src Source, sk planSketch, rows []int) []int {
	switch q := sk.atom.(type) {
	case EqAttr:
		sk.idx.ForEachGroup(func(g []int) bool {
			t := src.Tuple(g[0])
			if t[q.A].Const() == t[q.B].Const() {
				rows = append(rows, g...)
			}
			return true
		})
	case Eq:
		rows = append(rows, pl.group(src, q.Attr, q.Const, sk.idx)...)
	case In:
		for _, c := range sk.vals {
			rows = append(rows, pl.group(src, q.Attr, c, sk.idx)...)
		}
	}
	rows = append(rows, sk.idx.NullRows()...)
	slices.Sort(rows) // distinct groups and the sidecar are disjoint: no dupes
	return rows
}

// group returns idx's group of the constant c on attr (shared: read it,
// do not write it).
func (pl *Plan) group(src Source, attr schema.Attr, c string, idx *relation.Index) []int {
	if n := src.Scheme().Arity(); len(pl.probe) < n {
		pl.probe = make(relation.Tuple, n)
	}
	pl.probe[attr] = value.NewConst(c)
	g, _ := idx.Probe(pl.probe)
	return g
}

// intersectSorted appends the intersection of two ascending
// duplicate-free slices to dst, ascending. dst may be a[:0] or b[:0]:
// the output never overtakes either input.
func intersectSorted(dst, a, b []int) []int {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			dst = append(dst, a[i])
			i++
			j++
		}
	}
	return dst
}

// runBlock is how many candidates Run gathers before it evaluates them.
const runBlock = 64

// Run evaluates the plan into res: the full predicate on the root's
// candidates (ascending, so the Result is ascending), or the scan when
// nothing was plannable. res's lists are emptied first and appended to,
// so the arrays of a Result run into again are reused. With a residual
// order in place the ∧-spine is folded conjunct by conjunct with an
// early exit on the first false — sound because strong-Kleene ∧ is
// commutative, associative, and false-absorbing, so any evaluation
// order yields the same meet.
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
func (pl *Plan) Run(src Source, res *Result) {
	if pl.root == nil {
		scan(src, pl.pred, res)
		return
	}
	res.Sure, res.Maybe = res.Sure[:0], res.Maybe[:0]
	s := src.Scheme()
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
}

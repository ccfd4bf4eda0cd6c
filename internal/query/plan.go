// plan.go implements the algebraic selection planner of the indexed
// engine. It compiles the predicate into an algebraic plan over
// candidate row sets:
//
//   - every Eq or In atom of the ∧-spine becomes a *probe* node — the
//     index groups its constants select plus the null sidecar, exactly
//     the tuples on which the atom can evaluate non-false — sized by
//     what it would gather: one hash lookup per value, kept for the
//     build, so its estimate is its actual size. An attr1 = attr2 atom is
//     never probed: no lookup sizes the rows whose two cells agree, and
//     the least-extension rule decides it on a null anyway;
//   - when the spine's Eq atoms bind every attribute of an index the
//     source already keeps on two or more attributes — a left-hand
//     side's X-partition, fresh because the write path maintains it for
//     its FD — one *key* probe of that index joins them, sized the same
//     way. The planner never builds such an index;
//   - an ∧ gathers its smallest probe alone, and every other conjunct is
//     evaluated in the residual: a tuple on which any conjunct is false
//     makes the whole conjunction false (strong-Kleene ∧ is the
//     truth-order meet), so one conjunct's candidates are candidates for
//     the conjunction. Only the chosen probe gathers rows. Sized exactly,
//     no second probe is smaller than the first one's candidates, and in
//     a store in chase normal form D -> CT makes a D-group agree on CT,
//     so it would cut nothing anyway;
//   - an ∨ whose arms are all plannable becomes a *union* node: a tuple
//     on which the disjunction is non-false is non-false on some arm,
//     so the candidates are the deduplicated union of the arms' sets;
//   - the residual ∧-conjuncts are ordered by their probes' sizes —
//     cheapest-to-falsify first, an unprobed one last — and evaluated
//     with an early exit on the first false conjunct.
//
// Soundness of every node is the superset property: a probe's set
// contains every tuple on which its atom can be true or unknown, one
// conjunct's superset is a superset for the conjunction, and a union of
// supersets is a superset for the disjunction. The full predicate is
// still evaluated on every candidate, so sizes steer cost only — never
// verdicts. Tuples in a probed index's nothing sidecar are contradictory
// and false for every predicate by the package convention, so no plan
// visits them; contradictions off the probed sets are dropped by the
// per-candidate guard. A predicate offering no plannable structure falls
// back to the scan.
//
// Run reads the candidates 64 at a time. A cold candidate is three
// dependent loads — its tuple header, its cells, its constants' bytes in
// the domain's string — and evaluated row by row they miss one after
// another; a block's loads are issued together first, and a row of
// constants only skips the guard and the probed leaf (see Run).
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

// Plan node operators.
const (
	opProbe = "probe"
	opUnion = "union"
)

// planNode is one operator of an algebraic plan. It is sized when it is
// sketched, and it gathers its candidates only if it is chosen: rows is
// then ascending and duplicate-free, and est is the size the planner
// chose it by. rows is the node's own buffer, kept when the node is
// handed out again.
type planNode struct {
	op     string
	atom   Pred            // Eq and In probes: the pushed atom; Explain renders it when asked
	key    schema.AttrSet  // key probes: the index's attributes
	idx    *relation.Index // probes: the index probed
	lo, hi int             // probes: their groups, pl.groups[lo:hi]
	est    int             // candidate count, exact
	rows   []int           // materialized candidates, ascending, deduplicated
	kids   []*planNode     // unions: the arms
}

// residualConjunct is one ∧-spine leaf with its selectivity estimate —
// the fraction of source tuples on which it is expected non-false, the
// key the residual evaluation order sorts by.
type residualConjunct struct {
	pred   Pred
	frac   float64
	probed bool // the Eq or In whose probe is the root: true on a candidate of constants
}

// Plan is a compiled selection: a candidate-acquisition tree plus a
// selectivity-ordered residual. A nil root means no structure was
// plannable and Run performs the full scan. The fields after n are the
// scratch a Plan compiled again reuses (see "Who owns what" above).
type Plan struct {
	pred     Pred
	root     *planNode
	residual []residualConjunct
	n        int // source length at plan time

	leaves []Pred            // the ∧-spine leaves
	vals   []string          // an In's values, sorted and deduplicated
	probe  relation.Tuple    // a probe's key tuple
	groups [][]int           // the index groups the probes looked up (the indexes' own)
	cached []*relation.Index // the source's fresh cached indexes
	nodes  []*planNode       // every node sketched so far, handed out in order
	used   int               // nodes handed out by this compile
}

// PlanPred compiles p over src's indexes. It always returns a plan;
// when nothing is plannable the plan is the full scan.
func PlanPred(src Source, ix Indexer, p Pred) *Plan {
	pl := new(Plan)
	pl.compile(src, ix, p)
	return pl
}

// compile plans p into pl, reusing the scratch of pl's last compile.
// The root is the smallest node sketched; the key probe is sketched
// first, so it wins a tie. The leaf whose Eq or In probe is the
// root is marked probed in the residual.
func (pl *Plan) compile(src Source, ix Indexer, p Pred) {
	pl.pred, pl.n, pl.used = p, src.Len(), 0
	pl.groups = pl.groups[:0]
	if n := src.Scheme().Arity(); len(pl.probe) < n {
		pl.probe = make(relation.Tuple, n)
	}
	pl.leaves = conjuncts(p, pl.leaves[:0])
	pl.root = pl.sketchKey(ix)
	pl.residual = slices.Grow(pl.residual[:0], len(pl.leaves))
	// Residual order: every ∧-spine leaf, cheapest-to-falsify first.
	// Leaves without an estimate keep their original relative order at
	// the back (stable sort).
	rootLeaf := -1
	for i, leaf := range pl.leaves {
		frac := 1.0
		if n := pl.sketch(ix, leaf); n != nil {
			if pl.root == nil || n.est < pl.root.est {
				pl.root, rootLeaf = n, i
			}
			if pl.n > 0 {
				frac = float64(n.est) / float64(pl.n)
			}
		}
		pl.residual = append(pl.residual, residualConjunct{pred: leaf, frac: frac})
	}
	if pl.root != nil {
		pl.build(pl.root)
	}
	if rootLeaf >= 0 && pl.root.op == opProbe { // a leaf's probe: an Eq or In
		pl.residual[rootLeaf].probed = true
	}
	slices.SortStableFunc(pl.residual, func(a, b residualConjunct) int { return cmp.Compare(a.frac, b.frac) })
}

// sketch compiles one predicate into a sized node, or returns nil when
// the shape offers no index structure. And yields its plannable
// conjunct that is smaller, the left one on a tie (a superset of one
// conjunct's non-false tuples contains every tuple where the whole
// conjunction is non-false);
// Or requires *every* arm plannable (a tuple can satisfy the disjunction
// through an unplanned arm alone, so a partial union would be unsound).
func (pl *Plan) sketch(ix Indexer, p Pred) *planNode {
	switch q := p.(type) {
	case And:
		l, r := pl.sketch(ix, q.P), pl.sketch(ix, q.Q)
		if l == nil || r != nil && r.est < l.est {
			return r
		}
		return l
	case Or:
		if !plannable(p) {
			return nil
		}
		n := pl.node(opUnion)
		pl.sketchArms(ix, p, n)
		n.est = min(n.est, pl.n)
		return n
	case Eq:
		return pl.sketchEq(ix, q.Attr, []string{q.Const}, p)
	case In:
		// Dedupe at plan time: repeated values would probe the same
		// group twice, double-counting candidates in cost and evaluation.
		pl.vals = append(pl.vals[:0], q.Values...)
		slices.Sort(pl.vals)
		pl.vals = slices.Compact(pl.vals)
		return pl.sketchEq(ix, q.Attr, pl.vals, p)
	}
	return nil
}

// sketchArms sketches the ∨-spine leaves of p, all plannable, into union
// u's arms, left to right.
func (pl *Plan) sketchArms(ix Indexer, p Pred, u *planNode) {
	if o, ok := p.(Or); ok {
		pl.sketchArms(ix, o.P, u)
		pl.sketchArms(ix, o.Q, u)
		return
	}
	k := pl.sketch(ix, p)
	u.kids = append(u.kids, k)
	u.est += k.est
}

// plannable reports whether sketch yields a node for p, so an ∨ with an
// unplannable arm builds no index for the others: an Eq or In, an ∧ with
// a plannable conjunct, an ∨ whose arms all are.
func plannable(p Pred) bool {
	switch q := p.(type) {
	case Eq, In:
		return true
	case And:
		return plannable(q.P) || plannable(q.Q)
	case Or:
		return plannable(q.P) && plannable(q.Q)
	}
	return false
}

// sketchEq sketches the probe node of attr ∈ vals: the groups keyed by
// each value plus the null sidecar (a null on the attribute can complete
// to any constant). Values outside the attribute's domain still probe —
// the group is simply absent. The size is exact: each group is looked up
// here, one hash lookup per value, and kept in pl.groups for build.
func (pl *Plan) sketchEq(ix Indexer, attr schema.Attr, vals []string, atom Pred) *planNode {
	n := pl.node(opProbe)
	n.atom, n.idx = atom, ix.IndexOn(schema.NewAttrSet(attr))
	n.est, n.lo = len(n.idx.NullRows()), len(pl.groups)
	for _, c := range vals {
		pl.probe[attr] = value.NewConst(c)
		g, _ := n.idx.Probe(pl.probe)
		pl.groups = append(pl.groups, g)
		n.est += len(g)
	}
	n.hi = len(pl.groups)
	return n
}

// sketchKey sketches one probe of an index the source already keeps on
// two or more attributes that the ∧-spine's Eq atoms bind, every one —
// a left-hand side's X-partition, which the write path keeps fresh for
// its FD. The key is the bound constants (the leftmost Eq atom on each
// attribute) in pl.probe, and the probe is sized exactly like any other:
// the group plus the index's null sidecar. Of several such indexes the
// smallest probe wins, a tie going to the lower attribute set. Nothing is
// built: without such an index there is no key probe.
func (pl *Plan) sketchKey(ix Indexer) *planNode {
	var bound schema.AttrSet
	for i := len(pl.leaves) - 1; i >= 0; i-- { // the leftmost atom on an attribute writes last
		if q, ok := pl.leaves[i].(Eq); ok {
			bound = bound.Add(q.Attr)
			pl.probe[q.Attr] = value.NewConst(q.Const)
		}
	}
	if bound.Len() < 2 {
		return nil
	}
	var best *relation.Index
	var key schema.AttrSet
	var group []int
	est := 0
	pl.cached = ix.CachedIndexes(pl.cached[:0])
	for _, idx := range pl.cached {
		set := idx.Set()
		if set.Len() < 2 || !set.SubsetOf(bound) {
			continue
		}
		g, _ := idx.Probe(pl.probe)
		e := len(g) + len(idx.NullRows())
		if best == nil || e < est || e == est && set < key {
			best, key, est, group = idx, set, e, g
		}
	}
	if best == nil {
		return nil
	}
	n := pl.node(opProbe)
	n.idx, n.key, n.est = best, key, est
	n.lo, n.hi = len(pl.groups), len(pl.groups)+1
	pl.groups = append(pl.groups, group)
	return n
}

// node hands out pl's next node, reset but for its emptied buffers; the
// pool grows by one when this compile has used every node the earlier
// ones sketched.
func (pl *Plan) node(op string) *planNode {
	if pl.used == len(pl.nodes) {
		pl.nodes = append(pl.nodes, new(planNode))
	}
	n := pl.nodes[pl.used]
	pl.used++
	*n = planNode{op: op, rows: n.rows[:0], kids: n.kids[:0]}
	return n
}

// release drops every reference the last compile took — predicates,
// whose constants may be substrings of the caller's text, indexes and
// their groups, children — and keeps the buffers.
func (pl *Plan) release() {
	clear(pl.leaves)
	clear(pl.vals[:cap(pl.vals)]) // an earlier In of this compile may have held more
	clear(pl.residual)
	clear(pl.probe)
	clear(pl.groups)
	clear(pl.cached)
	for _, n := range pl.nodes[:pl.used] {
		n.atom, n.idx = nil, nil
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
		b += int(unsafe.Sizeof(*pl)) + (cap(pl.nodes)+cap(pl.cached))*word +
			cap(pl.leaves)*int(unsafe.Sizeof(Pred(nil))) + cap(pl.vals)*int(unsafe.Sizeof("")) +
			cap(pl.residual)*int(unsafe.Sizeof(residualConjunct{})) +
			cap(pl.probe)*int(unsafe.Sizeof(value.V{})) +
			cap(pl.groups)*int(unsafe.Sizeof([]int(nil)))
		for _, n := range pl.nodes {
			b += int(unsafe.Sizeof(*n)) + (cap(n.rows)+cap(n.kids))*word
		}
	}
	return b
}

// build gathers a chosen node's candidates into its own buffer, sorted:
// a probe's groups looked up when it was sketched plus its null sidecar,
// or its arms' candidates for a union, deduplicated. The groups are
// copied and sorted: a delta mutation can leave a group out of order
// (taking a row out swaps the group's last into its slot; DeleteDelta
// also renumbers a row), and the candidates must be ascending.
func (pl *Plan) build(n *planNode) {
	switch n.op {
	case opProbe:
		for _, g := range pl.groups[n.lo:n.hi] {
			n.rows = append(n.rows, g...)
		}
		n.rows = append(n.rows, n.idx.NullRows()...)
		slices.Sort(n.rows) // distinct groups and the sidecar are disjoint: no dupes
	case opUnion:
		for _, k := range n.kids {
			pl.build(k)
			n.rows = append(n.rows, k.rows...)
		}
		slices.Sort(n.rows)
		n.rows = slices.Compact(n.rows)
	}
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
// concurrent selections. The cell pass also marks the rows of constants
// only. Such a row skips the contradictory-tuple guard, which needs a
// `!` or a null, and the probed conjunct: its probed cell is a constant,
// so it came from the probe's groups and the atom is true on it. Every
// other row is evaluated in full. Verdicts and order are the row-by-row
// loop's.
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
		var consts uint64 // bit j: ts[j] holds only constants
		for j, t := range ts {
			consts |= 1 << j
			for _, v := range t {
				if !v.IsConst() {
					consts &^= 1 << j
				} else if c := v.Const(); c != "" {
					fold += c[0]
				}
			}
		}
		for j, t := range ts {
			decided := consts>>j&1 == 1
			if !decided && contradictory(s, t) {
				continue
			}
			v := tvl.True
			for _, rc := range pl.residual {
				if rc.probed && decided {
					continue
				}
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

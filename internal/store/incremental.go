// incremental.go holds the incremental maintenance engine's machinery:
// the mark-occurrence index, the undo log, and the worklist propagation
// that re-establishes the store's invariant — the instance is a fixpoint
// of the extended NS-rule system, free of `nothing` — after a write-set
// was applied in place, without cloning or re-chasing the instance. The
// commit pipeline that drives it (structural application, seeding,
// rollback) is prepareTxnIncremental in txn.go; a per-op mutation is a
// one-op write-set through that same pipeline.
//
// The engine rests on one property of fixpoints: the chase writes every
// forced substitution back into the cells, so two cells are in the same
// congruence class exactly when they are syntactically identical (equal
// constants, or nulls with the same mark). An NS-rule is therefore
// applicable only between tuples whose X-projections are *identical*,
// and after a write-set the only rules that can newly fire involve a
// tuple whose cells changed — initially the staged rows. The engine
// keeps that invariant inductively:
//
// a worklist propagation fires the rules at group granularity: for each
// dirty tuple, the tuples agreeing with it on some FD's determinant are
// found through the delta-maintained X-partition index (hash probe for
// constant projections, null-sidecar scan only when the dirty tuple
// carries marks), the whole group is swept in one symmetric pass — a
// distinct-constant pair rejects immediately, the extended chase's
// poisoning configuration — and each forced Y-merge is substituted
// *eagerly into every occurrence of the mark* via a mark→cells index,
// re-dirtying the touched tuples. Min-mark merging reproduces the
// chase's canonical (min) class marks, and groups shared by several
// dirty rows are swept once per round, which is what makes a k-row
// write-set into one group cost one sweep instead of k. That sweep is
// the engine's only constraint check: nothing pre-filters the write-set
// before it.
//
// Substitutions map identical cells to identical cells, so a group's
// members keep agreeing on X while the worklist runs — stale probe
// results stay valid, and new agreements are found when the re-dirtied
// tuples are processed. The propagation terminates because every
// substitution either binds a null or merges two mark classes.
//
// The propagation's scratch (Store.prop) lives on the Store, and each
// commit clears it: the write lock already serializes commits.
//
// On any contradiction the committer rolls the write-set back (the undo
// log below, through the delta mutators, so every index stays warm) and
// delegates to the recheck preparer, which re-derives the rejection with
// its full chase witness — rejects are therefore bit-identical between
// the engines, and the incremental path is a pure accept-side fast path.
package store

import (
	"slices"

	"fdnull/internal/fd"
	"fdnull/internal/relation"
	"fdnull/internal/schema"
	"fdnull/internal/value"
)

// cellRef addresses one cell of the stored instance.
type cellRef struct {
	ti int
	a  schema.Attr
}

// ensureMarks builds the incremental engine's working state, the
// occurrence index of live null marks (Store.marks), on first use: O(n·p)
// once. Commits and rollbacks then keep it exact in place; only the
// recheck path replacing the instance it describes drops it.
func (st *Store) ensureMarks() {
	if st.marks != nil {
		return
	}
	st.marks = make(map[int][]cellRef)
	for i, t := range st.rel.Tuples() {
		eachNull(i, t, st.addMarkRef)
	}
}

// eachNull calls fn with the mark and the address of every null cell of t,
// the tuple stored (or about to be, or no longer) as row i.
func eachNull(i int, t relation.Tuple, fn func(m int, ref cellRef)) {
	for a, v := range t {
		if v.IsNull() {
			fn(v.Mark(), cellRef{i, schema.Attr(a)})
		}
	}
}

// addMarkRef / dropMarkRef maintain the occurrence index around a single
// cell change.
func (st *Store) addMarkRef(m int, ref cellRef) {
	st.marks[m] = append(st.marks[m], ref)
}

func (st *Store) dropMarkRef(m int, ref cellRef) {
	refs := st.marks[m]
	if k := slices.Index(refs, ref); k >= 0 {
		refs[k] = refs[len(refs)-1]
		refs = refs[:len(refs)-1]
	}
	if len(refs) == 0 {
		delete(st.marks, m)
	} else {
		st.marks[m] = refs
	}
}

// retargetMarkRef follows one cell overwrite from the value it held to the
// value it holds now.
func (st *Store) retargetMarkRef(ref cellRef, from, to value.V) {
	if from.IsNull() {
		st.dropMarkRef(from.Mark(), ref)
	}
	if to.IsNull() {
		st.addMarkRef(to.Mark(), ref)
	}
}

// renumberMarkRefs rewrites the occurrence index after a swap-and-pop (or
// its undo) moved the whole row t.
func (st *Store) renumberMarkRefs(t relation.Tuple, from, to int) {
	eachNull(from, t, func(m int, ref cellRef) {
		refs := st.marks[m]
		if k := slices.Index(refs, ref); k >= 0 {
			refs[k].ti = to
		}
	})
}

// The fresh-mark allocator needs no per-commit renormalization: both
// engines keep it *monotone* — the recheck path restores the tentative's
// allocator after the chase rebuild (txn.go), and on the incremental
// path every mark enters the instance below it (parsed fresh nulls and
// noted explicit marks by construction; an Update writing an explicit
// marked null from above the allocator bumps it at apply time,
// applyTxnOp). Monotonicity guarantees a mark handed out by FreshNull is
// never recycled and aliased with an unrelated unknown.

// undoLog is one write-set's structural effects in the order they
// happened — the applied ops, one entry per *run* of inserts, then every
// substitution the propagation makes — and undo walks it newest-first
// through the same delta mutators, so a rejected, structurally failed or
// discarded (2PC) write-set leaves the instance exactly as it was: rows,
// tuple order, cells, every cached index, the identity index and the
// mark-occurrence index. Nothing is invalidated and nothing is left to
// rebuild; the cost, either way, is what the write-set touched. (A run of
// inserts needs no count: undone in reverse order it is the relation's
// tail again, popped down to the run's first row.)
type undoLog []appliedTxnOp

func (st *Store) undo(log undoLog) {
	rel := st.rel
	for k := len(log) - 1; k >= 0; k-- {
		switch e := log[k]; e.kind {
		case txnInsert:
			for i := rel.Len() - 1; i >= e.row; i-- {
				eachNull(i, rel.Tuple(i), st.dropMarkRef)
				rel.DeleteDelta(i)
			}
		case txnUpdate:
			cur := rel.Tuple(e.row)[e.a]
			rel.SetCellDelta(e.row, e.a, e.old)
			st.retargetMarkRef(cellRef{e.row, e.a}, cur, e.old)
		case txnDelete:
			if end := rel.Len(); e.row != end {
				st.renumberMarkRefs(rel.Tuple(e.row), e.row, end)
			}
			rel.UndeleteDelta(e.row, e.deleted)
			eachNull(e.row, e.deleted, st.addMarkRef)
		}
	}
}

// ---- worklist propagation ----

// settleSeeds is the propagation behind every commit, one op or k: it
// re-establishes the fixpoint invariant after the rows in p.seeds changed,
// firing NS-rules at *group* granularity. Each round sweeps, per FD, the
// partition groups of the currently dirty rows — a group shared by many
// dirty rows is swept once, which is what makes a k-row write-set into
// one group cost one sweep instead of k — applying every forced
// substitution through the mark occurrence index; rows touched by a
// substitution become the next round's dirty set. It reports false on a
// contradiction, leaving the partially substituted instance for the
// caller to roll back through und.
func (st *Store) settleSeeds(und *undoLog) bool {
	p := &st.prop
	clear(p.nextSet) // a rejected commit leaves its last round behind
	p.und, p.cur, p.next = und, p.cur[:0], p.next[:0]
	for i := range p.seeds {
		p.cur = append(p.cur, i)
	}
	for len(p.cur) > 0 {
		for _, f := range st.fds {
			clear(p.done)
			for _, i := range p.cur {
				if p.done[i] {
					continue
				}
				if !p.fireGroup(i, f) {
					return false
				}
			}
		}
		p.cur, p.next = p.next, p.cur[:0]
		clear(p.nextSet)
	}
	return true
}

// propagation is the incremental commit's scratch: the Store keeps one,
// and each commit clears its maps and reuses its buffers.
type propagation struct {
	st      *Store
	und     *undoLog
	log     undoLog      // und's backing
	seeds   map[int]bool // rows the write-set's ops touched
	cur     []int        // this round's dirty rows
	next    []int        // rows re-dirtied by substitutions (next round)
	nextSet map[int]bool // membership for next
	done    map[int]bool // rows whose group was swept for the current FD
	scratch []int
	marks   []int
}

func (p *propagation) dirty(i int) {
	if !p.nextSet[i] {
		p.nextSet[i] = true
		p.next = append(p.next, i)
	}
}

// fireGroup applies FD f across the entire set of tuples agreeing with
// tuple i on f.X — its constant-projection group, or its identical-
// projection partners in the null sidecar — in one symmetric pass per
// determined attribute, substituting the forced Y-merges and marking
// every swept row done for f. Returns false on contradiction.
func (p *propagation) fireGroup(i int, f fd.FD) bool {
	rel := p.st.rel
	ix := rel.IndexOn(f.X)
	t := rel.Tuple(i)
	p.scratch = p.scratch[:0]
	if rows, ok := ix.Probe(t); ok {
		// Substitutions may re-home rows mid-sweep; iterate a private
		// copy. Group members stay X-identical throughout (substitution
		// maps identical cells to identical cells), so the copy stays
		// valid.
		p.scratch = append(p.scratch, rows...)
	} else {
		// t carries marks on X: identical projections live in the null
		// sidecar only. X-identity is an equivalence, so the partner set
		// is the whole class and marking it done is sound.
		p.scratch = append(p.scratch, i)
		for _, j := range ix.NullRows() {
			if j != i && t.IdenticalOn(rel.Tuple(j), f.X) {
				p.scratch = append(p.scratch, j)
			}
		}
	}
	for _, j := range p.scratch {
		p.done[j] = true
	}
	if len(p.scratch) <= 1 {
		return true
	}
	for _, a := range f.Y.Attrs() {
		// One pass: the first constant fixes the class value (a distinct
		// second constant is the contradiction the extended chase poisons);
		// the marks collected alongside merge into it — or, with no
		// constant, into the chase's canonical minimum mark (NS-rule b).
		var constVal value.V
		hasConst := false
		p.marks = p.marks[:0]
		for _, j := range p.scratch {
			v := rel.Tuple(j)[a]
			switch {
			case v.IsConst():
				if !hasConst {
					hasConst, constVal = true, v
				} else if v.Const() != constVal.Const() {
					return false
				}
			case v.IsNull():
				m := v.Mark()
				known := false
				for _, seen := range p.marks {
					if seen == m {
						known = true
						break
					}
				}
				if !known {
					p.marks = append(p.marks, m)
				}
			}
		}
		if len(p.marks) == 0 {
			continue
		}
		if hasConst {
			for _, m := range p.marks {
				p.substitute(m, constVal) // NS-rule (a)
			}
			continue
		}
		if len(p.marks) == 1 {
			continue
		}
		min := p.marks[0]
		for _, m := range p.marks[1:] {
			if m < min {
				min = m
			}
		}
		for _, m := range p.marks {
			if m != min {
				p.substitute(m, value.NewNull(min)) // NS-rule (b)
			}
		}
	}
	return true
}

// substitute rewrites every occurrence of mark m to v, maintaining the
// occurrence index and re-dirtying every touched tuple.
func (p *propagation) substitute(m int, v value.V) {
	st := p.st
	refs := st.marks[m]
	delete(st.marks, m)
	for _, ref := range refs {
		old := st.rel.Tuple(ref.ti)[ref.a]
		st.rel.SetCellDelta(ref.ti, ref.a, v)
		*p.und = append(*p.und, appliedTxnOp{kind: txnUpdate, row: ref.ti, a: ref.a, old: old})
		p.dirty(ref.ti)
	}
	if v.IsNull() {
		st.marks[v.Mark()] = append(st.marks[v.Mark()], refs...)
	}
}

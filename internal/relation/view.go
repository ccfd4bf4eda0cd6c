// view.go implements cheap copy-on-write snapshots of a relation.
//
// Snapshot (Relation.View) is O(1): it hands out the current tuple-slice
// header and flips the relation into copy-on-write mode. The next
// structural mutation copies the outer slice (n pointer-sized words, not
// the cells), and the first overwrite of a shared row clones just that
// row — so readers iterate stable, immutable data while writers pay only
// for what they actually touch. This replaces the O(n·p) deep clone the
// store used to pay on every Snapshot call.
package relation

import "fdnull/internal/schema"

// View is an immutable snapshot of a relation instance, taken in O(1).
// It shares tuple storage with the relation it was taken from; the
// relation transitions to copy-on-write, so later mutations never show
// through. A View is safe for concurrent use by any number of readers.
//
// A View carries no indexes: the X-partition indexes belong to the live
// relation, whose delta mutators keep them fresh, and a snapshot of them
// would be a second structure to maintain. Selections over a View scan
// (internal/query); callers that need a stable cut *and* repeated probes
// Materialize it and index the copy.
type View struct {
	scheme  *schema.Scheme
	tuples  []Tuple
	version uint64
}

// View returns a copy-on-write snapshot of the instance.
//
// The caller must hold off concurrent *mutation* while View is invoked
// (the store takes its read lock); concurrent View
// calls are safe with each other.
func (r *Relation) View() View {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.cowPending = true
	return View{scheme: r.scheme, tuples: r.tuples[:len(r.tuples):len(r.tuples)], version: r.version}
}

// Scheme returns the snapshot's scheme.
func (v View) Scheme() *schema.Scheme { return v.scheme }

// Len returns the number of tuples in the snapshot.
func (v View) Len() int { return len(v.tuples) }

// Tuple returns the i-th tuple without copying. The returned tuple is
// immutable: the owning relation clones rows before overwriting them
// while a snapshot is outstanding.
func (v View) Tuple(i int) Tuple { return v.tuples[i] }

// Version is the relation's mutation counter at snapshot time.
func (v View) Version() uint64 { return v.version }

// Each calls fn for every tuple in order; fn returning false stops the
// iteration. It performs no per-tuple allocation.
func (v View) Each(fn func(i int, t Tuple) bool) {
	for i, t := range v.tuples {
		if !fn(i, t) {
			return
		}
	}
}

// Materialize deep-copies the snapshot into a standalone relation, for
// callers that need the full Relation API (checkers, the chase, …).
func (v View) Materialize() *Relation {
	out := New(v.scheme)
	for _, t := range v.tuples {
		out.noteMark(t)
		out.tuples = append(out.tuples, t.Clone())
	}
	return out
}

// ---- copy-on-write bookkeeping (relation side) ----

// ensureOwnedSlice makes the outer tuple slice private to the relation
// again after a View was taken: it copies the slice header array (cheap —
// pointers only) and marks every existing row as shared, so row content
// is cloned lazily by ensureOwnedRow. Must be called before any mutation
// that moves or removes row headers in place.
func (r *Relation) ensureOwnedSlice() {
	r.mu.Lock()
	pending := r.cowPending
	r.cowPending = false
	r.mu.Unlock()
	if !pending {
		return
	}
	r.tuples = append(make([]Tuple, 0, len(r.tuples)+1), r.tuples...)
	if cap(r.rowShared) >= len(r.tuples) {
		r.rowShared = r.rowShared[:len(r.tuples)]
		for i := range r.rowShared {
			r.rowShared[i] = true
		}
	} else {
		r.rowShared = make([]bool, len(r.tuples))
		for i := range r.rowShared {
			r.rowShared[i] = true
		}
	}
}

// ensureOwnedRow clones row i if its cells are still shared with an
// outstanding View, so an in-place cell overwrite cannot show through.
// Callers must have called ensureOwnedSlice first.
func (r *Relation) ensureOwnedRow(i int) {
	if i < len(r.rowShared) && r.rowShared[i] {
		r.tuples[i] = r.tuples[i].Clone()
		r.rowShared[i] = false
	}
}

// cowAppend records bookkeeping for a newly appended (always privately
// owned) row. Appending never needs ensureOwnedSlice: a View's slice
// length was captured at snapshot time, so a write at the current length
// is invisible to every outstanding View even when the backing array is
// shared.
func (r *Relation) cowAppend() {
	if r.rowShared != nil {
		r.rowShared = append(r.rowShared, false)
	}
}

// cowDelete shifts the shared-row flags alongside an ordered Delete.
func (r *Relation) cowDelete(i int) {
	if r.rowShared != nil {
		r.rowShared = append(r.rowShared[:i], r.rowShared[i+1:]...)
	}
}

// cowSwapPop shifts the shared-row flags alongside a swap-and-pop delete.
func (r *Relation) cowSwapPop(i, last int) {
	if r.rowShared != nil {
		r.rowShared[i] = r.rowShared[last]
		r.rowShared = r.rowShared[:last]
	}
}

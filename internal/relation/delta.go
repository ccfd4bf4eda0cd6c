// delta.go implements the delta-update path for relations and their
// cached indexes — the X-partition indexes and the identity index
// (identity.go): instead of bumping the version counter and letting every
// cached Index go stale (a full O(n) rebuild per index on next use), the
// delta mutators apply the mutation to each cached index in place —
//
//   - InsertDelta and InsertDeltaBatch (Insert is InsertDelta) append the
//     new rows to their touched groups or sidecars;
//   - DeleteDelta swaps the last row into the hole and pops, renumbering
//     only the moved row's index entries, and UndeleteDelta is its exact
//     inverse (the store's rollback);
//   - SetCellDelta (SetCell is the same call) re-homes the one touched
//     row in every index whose attribute set contains the overwritten
//     attribute.
//
// Each mutation therefore costs O(affected group · cached indexes), not
// O(n). This is the substrate of the store's incremental FD maintenance
// (internal/store): a write-heavy workload keeps its left-hand-side
// partitions warm across mutations instead of rebuilding them per write.
// Only InsertUnchecked and the ordered Delete still invalidate.
//
// Groups touched by delta updates no longer keep their rows in ascending
// order (DeleteDelta renumbers in place); none of the evaluators depend
// on group order, but callers that do should rebuild with BuildIndex.
package relation

import (
	"fmt"

	"fdnull/internal/schema"
	"fdnull/internal/value"
)

// InsertDelta validates and appends a tuple — correct arity, constants
// drawn from the attribute domains, no syntactic duplicate stored — as
// the one-row InsertDeltaBatch. Returns the new row's index.
func (r *Relation) InsertDelta(t Tuple) (int, error) {
	first, _, err := r.InsertDeltaBatch([]Tuple{t})
	return first, err
}

// InsertDeltaBatch validates and appends a write-set of tuples as one
// multi-row delta: one version bump covers the whole batch and every
// cached fresh index receives the new rows in one sweep, once the batch
// is known good. Each row is checked by one probe of the identity index,
// which already holds the batch's earlier rows — O(1) per row whatever
// the instance holds. The batch is all-or-nothing: on any duplicate the
// appended prefix is unwound, the allocator restored, and bad reports the
// offending position; on success first is the batch's first row, bad -1.
// The rows stored are copies whose constants are the domains' own strings
// (Domain.Canonical), never the caller's bytes; each copy replaces its
// tuple in ts.
func (r *Relation) InsertDeltaBatch(ts []Tuple) (first, bad int, err error) {
	first = len(r.tuples)
	if len(ts) == 0 {
		return first, -1, nil
	}
	for k, t := range ts {
		own := make(Tuple, len(t))
		if err := validate(r.scheme, t, own); err != nil {
			return -1, k, err
		}
		ts[k] = own
	}
	savedMark := r.nextMark
	id := r.identityIndex()
	for k, t := range ts {
		if id.find(r.tuples, t) >= 0 {
			for i := len(r.tuples) - 1; i >= first; i-- {
				id.remove(i, r.tuples[i])
				r.tuples[i] = nil
			}
			r.tuples = r.tuples[:first]
			r.nextMark = savedMark
			return -1, k, fmt.Errorf("relation %s: duplicate tuple %s", r.scheme.Name(), t)
		}
		r.noteMark(t)
		id.add(len(r.tuples), t)
		r.tuples = append(r.tuples, t)
	}
	for range ts {
		r.cowAppend()
	}
	r.applyDelta(func(ix *Index) {
		for i := first; i < len(r.tuples); i++ {
			ix.addRow(i, tupleGetter(r.tuples[i]))
		}
	})
	return first, -1, nil
}

// DeleteDelta removes row i by swapping the last row into its place and
// popping — O(p · cached indexes) instead of the O(n) renumbering an
// ordered delete would force on every index. It returns the index the
// moved row previously had, or -1 when i was the last row. Tuple order
// is not preserved.
func (r *Relation) DeleteDelta(i int) int {
	r.ensureOwnedSlice()
	last := len(r.tuples) - 1
	tDel := r.tuples[i]
	var tMoved Tuple
	if i != last {
		tMoved = r.tuples[last]
	}
	r.applyDelta(func(ix *Index) {
		ix.removeRow(i, tupleGetter(tDel))
		if tMoved != nil {
			ix.renumberRow(last, i, tupleGetter(tMoved))
		}
	})
	if r.ident != nil {
		r.ident.remove(i, tDel)
		if tMoved != nil {
			r.ident.renumber(last, i, tMoved)
		}
	}
	if tMoved != nil {
		r.tuples[i] = tMoved
	}
	r.tuples[last] = nil
	r.tuples = r.tuples[:last]
	r.cowSwapPop(i, last)
	if tMoved != nil {
		return last
	}
	return -1
}

// UndeleteDelta is DeleteDelta's inverse: given the slot i a DeleteDelta
// vacated and the tuple t it removed, with the relation back in the state
// that delete left, the row swapped into i returns to the end and t returns
// to i — rows, tuple order and every cached index as before the delete. t
// is stored, not copied, and flagged shared: a View taken before the delete
// may still hold it, so a later overwrite clones the row first.
func (r *Relation) UndeleteDelta(i int, t Tuple) {
	r.ensureOwnedSlice()
	last := len(r.tuples)
	var tMoved Tuple
	if i != last {
		tMoved = r.tuples[i]
	}
	r.applyDelta(func(ix *Index) {
		if tMoved != nil {
			ix.renumberRow(i, last, tupleGetter(tMoved))
		}
		ix.addRow(i, tupleGetter(t))
	})
	if r.ident != nil {
		if tMoved != nil {
			r.ident.renumber(i, last, tMoved)
		}
		r.ident.add(i, t)
	}
	// Append t, then trade places with slot i (itself when i is the end).
	r.tuples = append(r.tuples, t)
	r.tuples[last], r.tuples[i] = r.tuples[i], t
	if r.rowShared != nil {
		r.rowShared = append(r.rowShared, true)
		r.rowShared[last], r.rowShared[i] = r.rowShared[i], true
	}
}

// SetCellDelta overwrites cell (i, a) and re-homes row i in every cached
// index whose attribute set contains a: the row is removed from the
// partition slot its old projection selected and appended to the slot of
// the new one. Indexes whose set does not contain a are untouched.
func (r *Relation) SetCellDelta(i int, a schema.Attr, v value.V) {
	r.ensureOwnedSlice()
	r.ensureOwnedRow(i)
	t := r.tuples[i]
	old := t[a]
	r.applyDelta(func(ix *Index) {
		if !ix.set.Has(a) {
			return
		}
		ix.removeRow(i, overrideGetter(t, a, old))
		ix.addRow(i, overrideGetter(t, a, v))
	})
	if r.ident != nil {
		r.ident.remove(i, t)
	}
	t[a] = v
	if r.ident != nil {
		r.ident.add(i, t)
	}
}

// FindIdentical returns the index of a tuple syntactically identical to t
// (same constants, same null marks, same nothings), or -1 — one probe of
// the identity index, null-bearing or not. A tuple of the wrong arity is
// not stored.
func (r *Relation) FindIdentical(t Tuple) int {
	if len(t) != r.scheme.Arity() {
		return -1
	}
	return r.identityIndex().find(r.tuples, t)
}

// applyDelta bumps the version and applies fn to every cached index that
// was fresh, stamping it with the new version so IndexOn keeps returning
// it. Indexes that were already stale cannot be delta-updated (they
// describe an older instance) and are dropped from the cache instead.
func (r *Relation) applyDelta(fn func(ix *Index)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	old := r.version
	r.version++
	for set, ix := range r.indexes {
		if ix.version != old {
			delete(r.indexes, set)
			continue
		}
		fn(ix)
		ix.version = r.version
	}
}

// ---- index-side delta application ----

// getter abstracts "the value of attribute a" so SetCellDelta can compute
// a row's old partition slot after the cell is conceptually overwritten,
// without materializing a temporary tuple.
type getter func(a schema.Attr) value.V

func tupleGetter(t Tuple) getter { return func(a schema.Attr) value.V { return t[a] } }

func overrideGetter(t Tuple, oa schema.Attr, ov value.V) getter {
	return func(a schema.Attr) value.V {
		if a == oa {
			return ov
		}
		return t[a]
	}
}

const (
	locGroup = iota
	locNulls
	locNothing
)

// locate classifies a projection the same way BuildIndex does: nothing
// sidecar, null sidecar, or the constant group whose key (appendGroupKey)
// it builds in the index's key scratch.
func (ix *Index) locate(get getter) (int, []byte) {
	hasNull := false
	for _, a := range ix.attrs {
		v := get(a)
		if v.IsNothing() {
			return locNothing, nil
		}
		if v.IsNull() {
			hasNull = true
		}
	}
	if hasNull {
		return locNulls, nil
	}
	ix.key = ix.appendGroupKey(ix.key[:0], get)
	return locGroup, ix.key
}

// addRow appends row i to the slot its projection selects. A new group
// takes a freed slot when there is one.
func (ix *Index) addRow(i int, get getter) {
	switch kind, key := ix.locate(get); kind {
	case locNothing:
		ix.nothing = append(ix.nothing, i)
	case locNulls:
		ix.nulls = append(ix.nulls, i)
	default:
		s, ok := ix.groups[string(key)]
		if !ok {
			if n := len(ix.free); n > 0 {
				s, ix.free = ix.free[n-1], ix.free[:n-1]
			} else {
				s = int32(len(ix.rows))
				ix.rows = append(ix.rows, nil)
			}
			ix.groups[ix.newKey(key, get)] = s
		}
		ix.rows[s] = append(ix.rows[s], i)
	}
}

// removeRow removes row i from the slot its projection selects, freeing
// the slot of a group that becomes empty so GroupCount stays exact.
func (ix *Index) removeRow(i int, get getter) {
	switch kind, key := ix.locate(get); kind {
	case locNothing:
		ix.nothing = cutRow(ix.nothing, i)
	case locNulls:
		ix.nulls = cutRow(ix.nulls, i)
	default:
		s := ix.groups[string(key)]
		if ix.rows[s] = cutRow(ix.rows[s], i); len(ix.rows[s]) == 0 {
			delete(ix.groups, string(key))
			ix.free = append(ix.free, s)
		}
	}
}

// renumberRow rewrites row id old to new in the slot the row's projection
// selects (the row content is unchanged — only its position moved).
func (ix *Index) renumberRow(old, new int, get getter) {
	switch kind, key := ix.locate(get); kind {
	case locNothing:
		swapRow(ix.nothing, old, new)
	case locNulls:
		swapRow(ix.nulls, old, new)
	default:
		swapRow(ix.group(key), old, new)
	}
}

// cutRow removes the first occurrence of id by swap-and-pop.
func cutRow(rows []int, id int) []int {
	for k, v := range rows {
		if v == id {
			rows[k] = rows[len(rows)-1]
			return rows[:len(rows)-1]
		}
	}
	return rows
}

// swapRow rewrites the first occurrence of old to new.
func swapRow(rows []int, old, new int) {
	for k, v := range rows {
		if v == old {
			rows[k] = new
			return
		}
	}
}

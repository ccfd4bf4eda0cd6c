// index.go implements the X-partition index: a hash partition of an
// instance's tuples by their constant projection on an attribute set X,
// with sidecar lists for the tuples that are not constant on X.
//
// The index turns the "find the tuples agreeing with t on X" step — the
// inner loop of every FD satisfaction check (Proposition 1's match search,
// TEST-FDs' grouping, the classical no-conflicting-pair test) — from a
// linear scan into a hash probe. It is built once per (instance, X) and
// cached on the relation, so checking many FDs with the same left-hand
// side reuses one partition; a mutation either patches the cached indexes
// in place (delta.go) or invalidates them through a version counter.
package relation

import (
	"maps"
	"strconv"

	"fdnull/internal/schema"
)

// Index is a partition of a relation's tuples by their projection on a
// fixed attribute set. Tuples whose projection is all constants are hashed
// into groups; tuples with a null (or the inconsistent element) on the set
// cannot participate in constant equality and are kept in sidecar lists.
//
// An Index built by BuildIndex and not cached is immutable and safe for
// concurrent use by readers: it describes the instance as it was when the
// index was built. A cached one (IndexOn) is updated in place by the delta
// mutators (delta.go; Insert and SetCell are among them), so it stays
// fresh at O(affected group) per mutation, and goes stale — IndexOn
// transparently rebuilds it — under InsertUnchecked and the ordered
// Delete; as with the relation itself, delta mutation must not run
// concurrently with readers.
type Index struct {
	set   schema.AttrSet
	attrs []schema.Attr // set.Attrs(), precomputed for the probe hot path
	// groups maps a constant projection's key (appendGroupKey) to its slot in
	// rows, the group's tuple indices (ascending when freshly built);
	// removeRow frees an emptied slot into free, and addRow reuses it.
	groups  map[string]int32
	rows    [][]int
	free    []int32
	key     []byte // the delta mutators' key scratch (delta.go: locate)
	nulls   []int  // tuples with ≥1 null (and no nothing) on set
	nothing []int  // tuples with ≥1 inconsistent element on set
	version uint64 // relation version the index was built at

	// groupRows counts the rows living in constant groups (excluding both
	// sidecars), maintained alongside the groups so Stats is exact.
	groupRows int
}

// IndexStats is the summary of an index's partition shape: how many rows
// hash into constant groups, across how many distinct groups, and how
// large the sidecars are. All four are exact and describe the indexed
// instance at the index's version.
type IndexStats struct {
	Rows    int // rows in constant groups (excludes sidecars)
	Groups  int // distinct constant projections
	Nulls   int // null-sidecar size
	Nothing int // nothing-sidecar size
}

// Stats returns the index's partition statistics.
func (ix *Index) Stats() IndexStats {
	return IndexStats{
		Rows:    ix.groupRows,
		Groups:  len(ix.groups),
		Nulls:   len(ix.nulls),
		Nothing: len(ix.nothing),
	}
}

// BuildIndex partitions r's tuples by their projection on set. One pass
// maps each row to its group's slot, keyed in a reused buffer so only a
// new wider group allocates a key; a second carves the groups out of one
// slab, each capped so a later delta append reallocates only its own group.
func BuildIndex(r *Relation, set schema.AttrSet) *Index {
	ix := &Index{set: set, attrs: set.Attrs(), groups: map[string]int32{}, version: r.version}
	slot := make([]int32, len(r.tuples))
	var sizes []int
	var buf []byte
	for i, t := range r.tuples {
		if i == 1024 && len(sizes) > 512 { // keys mostly distinct: size the map for all rows
			m := make(map[string]int32, len(sizes)*len(r.tuples)/1024)
			maps.Copy(m, ix.groups)
			ix.groups = m
		}
		slot[i] = -1
		switch {
		case t.HasNothingOn(set):
			ix.nothing = append(ix.nothing, i)
		case t.HasNullOn(set):
			ix.nulls = append(ix.nulls, i)
		default:
			buf = ix.appendGroupKey(buf[:0], tupleGetter(t))
			s, ok := ix.groups[string(buf)]
			if !ok {
				s = int32(len(sizes))
				ix.groups[ix.newKey(buf, tupleGetter(t))] = s
				sizes = append(sizes, 0)
			}
			slot[i] = s
			sizes[s]++
		}
	}
	ix.groupRows = len(r.tuples) - len(ix.nulls) - len(ix.nothing)
	slab := make([]int, ix.groupRows)
	ix.rows = make([][]int, len(sizes))
	for s, k := range sizes {
		ix.rows[s], slab = slab[:0:k], slab[k:]
	}
	for i, s := range slot {
		if s >= 0 {
			ix.rows[s] = append(ix.rows[s], i)
		}
	}
	return ix
}

// appendGroupKey appends a constant projection's group key: on a
// one-attribute index the constant itself, else appendKey's encoding.
func (ix *Index) appendGroupKey(buf []byte, get getter) []byte {
	if len(ix.attrs) == 1 {
		return append(buf, get(ix.attrs[0]).Const()...)
	}
	return appendKey(buf, get, ix.attrs)
}

// newKey returns a new group's key: the cell's own string, or a copy.
func (ix *Index) newKey(key []byte, get getter) string {
	if len(ix.attrs) == 1 {
		return get(ix.attrs[0]).Const()
	}
	return string(key)
}

// appendKey appends an unambiguous encoding of a constant projection on
// attrs — the group key of a wider index, and ConstKeyOn's routing key
// for every width: each constant is length-prefixed, so distinct
// projections can never collide ("a"+"bc" vs "ab"+"c").
func appendKey(buf []byte, get getter, attrs []schema.Attr) []byte {
	for _, a := range attrs {
		c := get(a).Const()
		buf = strconv.AppendInt(buf, int64(len(c)), 10)
		buf = append(append(buf, ':'), c...)
	}
	return buf
}

// Set returns the attribute set the index partitions on.
func (ix *Index) Set() schema.AttrSet { return ix.set }

// Probe returns the indices of the indexed tuples whose projection on the
// index's set equals t's, together with ok=true. When t is not
// all-constant on the set, constant equality is undefined and Probe
// returns (nil, false). The returned slice is shared; callers must not
// mutate it. Freshly built indexes list rows in ascending order; groups
// touched by delta updates (delta.go) may not. The key is built on the
// stack: a probe allocates nothing.
func (ix *Index) Probe(t Tuple) ([]int, bool) {
	for _, a := range ix.attrs {
		if int(a) >= len(t) || !t[a].IsConst() {
			return nil, false
		}
	}
	var stack [64]byte
	return ix.group(ix.appendGroupKey(stack[:0], tupleGetter(t))), true
}

// group returns the rows of the group keyed key, nil when there is none.
func (ix *Index) group(key []byte) []int {
	if s, ok := ix.groups[string(key)]; ok {
		return ix.rows[s]
	}
	return nil
}

// NullRows returns the indices of tuples with a null on the set (shared
// slice — do not mutate; ascending unless delta-updated).
func (ix *Index) NullRows() []int { return ix.nulls }

// NothingRows returns the indices of tuples with the inconsistent element
// on the set (shared slice — do not mutate; ascending unless
// delta-updated).
func (ix *Index) NothingRows() []int { return ix.nothing }

// GroupCount returns the number of distinct constant projections.
func (ix *Index) GroupCount() int { return len(ix.groups) }

// ForEachGroup calls fn once per group of constant-projection-equal tuples
// (row and group order are unspecified). fn returning false stops the
// iteration early.
func (ix *Index) ForEachGroup(fn func(rows []int) bool) {
	for _, rows := range ix.rows {
		if len(rows) > 0 && !fn(rows) {
			return
		}
	}
}

// IndexOn returns the index of r on set, building it on first use and
// caching it on the relation. The cache is keyed by attribute set; delta
// mutations (delta.go) keep it fresh in place, while InsertUnchecked and the
// ordered Delete invalidate it through the version counter — a returned
// index always describes the current tuples either way. Safe for
// concurrent callers; the returned Index must not be read concurrently
// with delta mutation.
func (r *Relation) IndexOn(set schema.AttrSet) *Index {
	r.mu.Lock()
	defer r.mu.Unlock()
	if ix, ok := r.indexes[set]; ok && ix.version == r.version {
		r.indexServed++
		return ix
	}
	r.indexBuilt++
	ix := BuildIndex(r, set)
	if r.indexes == nil {
		r.indexes = make(map[schema.AttrSet]*Index)
	}
	r.indexes[set] = ix
	return ix
}

// CachedIndexes appends to dst the indexes r has cached that describe
// its current tuples, in no particular order. It builds none: a caller
// that wants an index only when the write path already keeps it asks
// here, not IndexOn.
func (r *Relation) CachedIndexes(dst []*Index) []*Index {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, ix := range r.indexes {
		if ix.version == r.version {
			dst = append(dst, ix)
		}
	}
	return dst
}

// IndexCounts reports how many index lookups — IndexOn calls and identity
// probes — a fresh cached index answered and how many had to build one,
// since r was created. A workload whose writes all go through the delta
// mutators builds each index once; a built count that grows with the
// writes is an index being rebuilt.
func (r *Relation) IndexCounts() (served, built uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.indexServed, r.indexBuilt
}

// ConstKeyOn returns appendKey's encoding of t's constant projection on
// attrs, so identical projections (and only those) share an encoding:
// the routing key sharded stores hash, fixed for every key width. It
// reports ok=false when any projected cell is a marked null, the
// inconsistent element or absent (a short tuple): constant routing (hash
// sharding on a key) is undefined for such tuples.
func ConstKeyOn(t Tuple, attrs []schema.Attr) (string, bool) {
	var stack [64]byte
	key, ok := constKey(stack[:0], t, attrs)
	return string(key), ok
}

// constKey appends t's group key on attrs to buf, or reports ok=false
// (buf unchanged) when t is not all-constant there.
func constKey(buf []byte, t Tuple, attrs []schema.Attr) ([]byte, bool) {
	for _, a := range attrs {
		if int(a) >= len(t) || !t[a].IsConst() {
			return buf, false
		}
	}
	return appendKey(buf, tupleGetter(t), attrs), true
}

// Package partition implements null-aware stripped partitions — the
// position-list indexes behind the fast FD-discovery engine.
//
// A partition π_X groups a relation's tuples into equivalence classes of
// tuples that *agree on X under a TEST-FDs convention* (Theorems 2 and 3
// of the paper). Classes with a single member are stripped: a lone tuple
// can never be half of a violating pair, so only classes of size ≥ 2 are
// kept — and stripped partitions shrink rapidly as X grows, which is what
// makes level-wise lattice search cheap at the upper levels.
//
// The two conventions induce different groupings:
//
//   - Weak (Theorem 3): a null equals only a same-mark null, so null marks
//     are ordinary key symbols — ⊥3 is just another value of the column —
//     and every tuple lands in a class. A `nothing` cell equals no value,
//     not even itself, so tuples with `nothing` on X go to a sidecar and
//     can never pair up.
//   - Strong (Theorem 2): a null unifies with *every* value, which is not
//     an equivalence relation (a1 ~ ⊥ ~ a2 but a1 ≁ a2), so it cannot be
//     represented by a partition at all. Tuples that are all-constant on X
//     are partitioned by their projection; tuples with a null (or nothing)
//     on X go to sidecar lists for the engine's wildcard analysis.
//
// Partitions compose: π_{X∪Y} = π_X · π_Y, where the product refines each
// class of π_X by the class identifiers of π_Y (the product encoding: a
// tuple's class in the product is the pair (class in π_X, class in π_Y),
// never a re-scan of the relation's values). Because partition product is
// idempotent and associative, lattice-level results compose from cached
// lower-level ones — the Cache exploits exactly this. Nor is a strong
// level-1 partition scanned: π_{A} is the relation's X-partition index on
// {A} (relation.IndexOn, shared with eval.CheckAll and the query planner)
// with singletons stripped, and the Cache reads it off that index.
package partition

import (
	"slices"
	"strconv"

	"fdnull/internal/relation"
	"fdnull/internal/schema"
	"fdnull/internal/testfds"
)

// Partition is the stripped partition of a relation's tuples on an
// attribute set under a convention. It is immutable after construction
// and safe for concurrent readers; it describes the relation as of the
// moment it was built (see Cache for staleness handling).
type Partition struct {
	set  schema.AttrSet
	conv testfds.Convention
	n    int
	// classes holds the equivalence classes with ≥ 2 members, each a
	// slice of ascending tuple indices; classOf maps a tuple to its class
	// index, or -1 when the tuple is a stripped singleton or sidecar'd.
	classes [][]int
	classOf []int
	// nulls (strong convention only) lists the tuples with a null — and
	// no nothing — on the set, ascending: the wildcard sidecar.
	nulls []int
	// nothing lists the tuples with the inconsistent element on the set,
	// ascending, under both conventions.
	nothing []int
}

// Build constructs the partition of r on set by a direct scan, classes in
// order of first row: the Cache's weak level-1 partitions, and the ground
// truth its products and index-read partitions are tested against.
func Build(r *relation.Relation, set schema.AttrSet, conv testfds.Convention) *Partition {
	attrs := set.Attrs()
	p := &Partition{set: set, conv: conv, n: r.Len(), classOf: slices.Repeat([]int{-1}, r.Len())}
	slots := map[string]int{}
	var groups [][]int
	var buf []byte
	for i, t := range r.Tuples() {
		if t.HasNothingOn(set) {
			p.nothing = append(p.nothing, i)
			continue
		}
		if conv == testfds.Strong && t.HasNullOn(set) {
			p.nulls = append(p.nulls, i)
			continue
		}
		buf = buf[:0]
		for _, a := range attrs {
			if v := t[a]; v.IsNull() {
				// Weak convention only: the mark is the key symbol. The
				// 'n'/'c' prefixes keep mark 12 distinct from constant "12".
				buf = strconv.AppendInt(append(buf, 'n'), int64(v.Mark()), 10)
				buf = append(buf, ';')
			} else {
				c := v.Const()
				buf = strconv.AppendInt(append(buf, 'c'), int64(len(c)), 10)
				buf = append(append(buf, ':'), c...)
			}
		}
		s, ok := slots[string(buf)]
		if !ok {
			s = len(groups)
			slots[string(buf)] = s
			groups = append(groups, nil)
		}
		groups[s] = append(groups[s], i)
	}
	for _, rows := range groups {
		if len(rows) >= 2 {
			p.addClass(rows)
		}
	}
	return p
}

// fromIndex is the strong-convention partition on ix's set read off the
// X-partition index: its groups of two or more rows are the classes, its
// sidecars the partition's. The index is patched in place by delta
// updates, which also leave groups unordered, so the rows are copied into
// one slab and sorted, and the classes ordered by first row: Build's order.
func fromIndex(ix *relation.Index, n int) *Partition {
	p := &Partition{set: ix.Set(), conv: testfds.Strong, n: n, classOf: slices.Repeat([]int{-1}, n)}
	slab := make([]int, 0, n-len(ix.NullRows())-len(ix.NothingRows()))
	var classes [][]int
	ix.ForEachGroup(func(rows []int) bool {
		if len(rows) >= 2 {
			slab = append(slab, rows...)
			cls := slab[len(slab)-len(rows) : len(slab) : len(slab)]
			slices.Sort(cls)
			classes = append(classes, cls)
		}
		return true
	})
	slices.SortFunc(classes, func(a, b []int) int { return a[0] - b[0] })
	for _, cls := range classes {
		p.addClass(cls)
	}
	p.nulls, p.nothing = slices.Sorted(slices.Values(ix.NullRows())), slices.Sorted(slices.Values(ix.NothingRows()))
	return p
}

func (p *Partition) addClass(rows []int) {
	id := len(p.classes)
	for _, i := range rows {
		p.classOf[i] = id
	}
	p.classes = append(p.classes, rows)
}

// Intersect returns the partition on p.set ∪ q.set as the product p · q:
// each class of p is refined by q's class identifiers (the product
// encoding — tuple values are never touched). Tuples stripped or
// sidecar'd in either operand are stripped or sidecar'd in the product;
// sidecars merge exactly, so the product's null/nothing lists are the
// same as a direct Build's. Cost is O(‖p‖ log ‖p‖ + sidecars), where ‖p‖
// is the stripped support — independent of the relation size.
func (p *Partition) Intersect(q *Partition) *Partition {
	if p.conv != q.conv || p.n != q.n {
		panic("partition: Intersect over mismatched partitions")
	}
	out := &Partition{set: p.set.Union(q.set), conv: p.conv, n: p.n, classOf: slices.Repeat([]int{-1}, p.n)}
	var buf []int64
	for _, cls := range p.classes {
		buf = buf[:0]
		for _, i := range cls {
			// A tuple stripped in q is alone on q.set — alone on the union
			// too. A tuple sidecar'd in q carries its null/nothing into the
			// union sidecars, merged below. Pack (q-class, row) into one
			// word so grouping is a flat integer sort.
			if qc := q.classOf[i]; qc >= 0 {
				buf = append(buf, int64(qc)<<32|int64(i))
			}
		}
		if len(buf) < 2 {
			continue
		}
		slices.Sort(buf)
		for s := 0; s < len(buf); {
			e := s + 1
			for e < len(buf) && buf[e]>>32 == buf[s]>>32 {
				e++
			}
			if e-s >= 2 {
				rows := make([]int, 0, e-s)
				for _, v := range buf[s:e] {
					rows = append(rows, int(uint32(v)))
				}
				out.addClass(rows)
			}
			s = e
		}
	}
	out.nothing = mergeUnion(p.nothing, q.nothing)
	if p.conv == testfds.Strong {
		// Nothing outranks null (as in relation.Index): a tuple with a null
		// on p.set and a nothing on q.set is a nothing-tuple of the union.
		out.nulls = mergeDiff(mergeUnion(p.nulls, q.nulls), out.nothing)
	}
	return out
}

// Set returns the attribute set the partition is on.
func (p *Partition) Set() schema.AttrSet { return p.set }

// Convention returns the null-comparison convention the partition encodes.
func (p *Partition) Convention() testfds.Convention { return p.conv }

// Len returns the number of tuples of the underlying relation.
func (p *Partition) Len() int { return p.n }

// Classes returns the stripped classes (size ≥ 2, ascending tuple
// indices). Shared slices — callers must not mutate.
func (p *Partition) Classes() [][]int { return p.classes }

// NumClasses returns the number of stripped classes.
func (p *Partition) NumClasses() int { return len(p.classes) }

// ClassOf returns the class index of tuple i, or -1 when i is a stripped
// singleton or lives in a sidecar.
func (p *Partition) ClassOf(i int) int { return p.classOf[i] }

// NullRows returns the strong convention's wildcard sidecar: tuples with
// a null (and no nothing) on the set, ascending. Empty under the weak
// convention, where null marks are ordinary key symbols.
func (p *Partition) NullRows() []int { return p.nulls }

// NothingRows returns the tuples with the inconsistent element on the
// set, ascending.
func (p *Partition) NothingRows() []int { return p.nothing }

// mergeUnion merges two ascending int slices into their ascending union.
func mergeUnion(a, b []int) []int {
	if len(a) == 0 {
		return append([]int(nil), b...)
	}
	if len(b) == 0 {
		return append([]int(nil), a...)
	}
	out := make([]int, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			out = append(out, a[i])
			i++
		case a[i] > b[j]:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	out = append(out, a[i:]...)
	return append(out, b[j:]...)
}

// mergeDiff returns a \ b for ascending int slices, ascending.
func mergeDiff(a, b []int) []int {
	if len(b) == 0 {
		return a
	}
	out := make([]int, 0, len(a))
	j := 0
	for _, v := range a {
		for j < len(b) && b[j] < v {
			j++
		}
		if j < len(b) && b[j] == v {
			continue
		}
		out = append(out, v)
	}
	return out
}

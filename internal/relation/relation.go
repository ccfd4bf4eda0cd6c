// Package relation implements relation instances over a scheme, including
// tuples with marked nulls, projections, and the completion sets AP(t,X)
// and AP(r,X) of Section 4 of the paper.
//
// A completion of a tuple t is a tuple t' that agrees with t everywhere
// except that every null has been replaced by a domain constant. The set of
// all completions, AP(t,R), is exactly the set of non-null tuples that t
// approximates in the tuple lattice (the paper's footnote on the name "AP").
package relation

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"
	"sync"

	"fdnull/internal/schema"
	"fdnull/internal/value"
)

// Tuple is a row of values, indexed by schema.Attr.
type Tuple []value.V

// Clone returns a deep copy of t.
func (t Tuple) Clone() Tuple {
	out := make(Tuple, len(t))
	copy(out, t)
	return out
}

// HasNullOn reports whether t has a null in any attribute of set.
// This is the paper's "t[X] = null" convention (Section 6: "t[X]=null
// implies that one of the Xi values is null"). Like HasNothingOn,
// ConstEqOn and IdenticalOn it walks the bitset in place: set.Attrs() is
// a slice per call, and these sit under every FD check and fireGroup.
func (t Tuple) HasNullOn(set schema.AttrSet) bool {
	for v := uint64(set); v != 0; v &= v - 1 {
		if t[bits.TrailingZeros64(v)].IsNull() {
			return true
		}
	}
	return false
}

// HasNothingOn reports whether t has the inconsistent element in set.
func (t Tuple) HasNothingOn(set schema.AttrSet) bool {
	for v := uint64(set); v != 0; v &= v - 1 {
		if t[bits.TrailingZeros64(v)].IsNothing() {
			return true
		}
	}
	return false
}

// NullsOn returns the attributes of set where t is null.
func (t Tuple) NullsOn(set schema.AttrSet) []schema.Attr {
	var out []schema.Attr
	for v := uint64(set); v != 0; v &= v - 1 {
		if a := schema.Attr(bits.TrailingZeros64(v)); t[a].IsNull() {
			out = append(out, a)
		}
	}
	return out
}

// ConstEqOn reports whether t and u hold identical constants on every
// attribute of set. Any null or nothing on set makes this false: it is the
// strict, classical notion of equality used by [T1]/[F1].
func (t Tuple) ConstEqOn(u Tuple, set schema.AttrSet) bool {
	for v := uint64(set); v != 0; v &= v - 1 {
		if a := bits.TrailingZeros64(v); !t[a].SameConst(u[a]) {
			return false
		}
	}
	return true
}

// IdenticalOn reports syntactic identity (same constants, same null marks,
// same nothings) on set.
func (t Tuple) IdenticalOn(u Tuple, set schema.AttrSet) bool {
	for v := uint64(set); v != 0; v &= v - 1 {
		if a := bits.TrailingZeros64(v); !t[a].Identical(u[a]) {
			return false
		}
	}
	return true
}

// Project returns the sub-tuple of t on the attributes of keep (ascending
// attribute order).
func (t Tuple) Project(keep schema.AttrSet) Tuple {
	out := make(Tuple, 0, keep.Len())
	for _, a := range keep.Attrs() {
		out = append(out, t[a])
	}
	return out
}

// Approximates reports t ⊑ u attribute-wise in the tuple lattice.
func (t Tuple) Approximates(u Tuple) bool {
	if len(t) != len(u) {
		return false
	}
	for i := range t {
		if !t[i].Approximates(u[i]) {
			return false
		}
	}
	return true
}

// String renders the tuple as "(v1, v2, …)".
func (t Tuple) String() string {
	parts := make([]string, len(t))
	for i, v := range t {
		parts[i] = v.String()
	}
	return "(" + strings.Join(parts, ", ") + ")"
}

// Relation is an instance r of a scheme R. Tuples are stored in insertion
// order; the instance is a *bag* structurally but the paper's theory treats
// instances as sets, so Insert rejects syntactic duplicates by default.
//
// Relations are not safe for concurrent mutation, but concurrent *readers*
// (including IndexOn) are safe once mutation has stopped — the evaluation
// engine's worker pool relies on this.
type Relation struct {
	scheme   *schema.Scheme
	tuples   []Tuple
	nextMark int

	// X-partition index cache (index.go) and identity index (identity.go,
	// nil until asked for). version counts mutations so a cached index can
	// detect it is stale; mu guards these fields only — tuple storage has
	// no internal locking. The delta mutators (delta.go) update the
	// indexes in place instead of letting them go stale.
	version uint64
	mu      sync.Mutex
	indexes map[schema.AttrSet]*Index
	ident   *identity
	// Index lookups answered by a fresh cached index, and lookups that had
	// to build one (guarded by mu).
	indexServed, indexBuilt uint64

	// Copy-on-write state (view.go). cowPending is set when a View shares
	// the current tuple slice; rowShared marks rows whose cells are still
	// shared with an outstanding View.
	cowPending bool
	rowShared  []bool
}

// New creates an empty instance of s.
func New(s *schema.Scheme) *Relation {
	return &Relation{scheme: s, nextMark: 1}
}

// Scheme returns the instance's scheme.
func (r *Relation) Scheme() *schema.Scheme { return r.scheme }

// Len returns the number of tuples n.
func (r *Relation) Len() int { return len(r.tuples) }

// Tuple returns the i-th tuple (not a copy; callers must not mutate).
func (r *Relation) Tuple(i int) Tuple { return r.tuples[i] }

// Version returns the mutation counter: it increments on every Insert,
// Delete, or SetCell. Derived structures built outside the relation (the
// partition cache of internal/partition, for example) compare it to the
// version they were built at to detect staleness.
func (r *Relation) Version() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.version
}

// Tuples returns the backing slice (callers must not mutate).
func (r *Relation) Tuples() []Tuple { return r.tuples }

// FreshNull allocates a null with a mark unused in this instance.
func (r *Relation) FreshNull() value.V {
	v := value.NewNull(r.nextMark)
	r.nextMark++
	return v
}

// NextMark returns the fresh-mark allocator's next mark. It exists so
// incremental maintainers (internal/store) can save and restore the
// allocator around speculative mutations.
func (r *Relation) NextMark() int { return r.nextMark }

// SetNextMark overwrites the fresh-mark allocator. Incremental
// maintainers use it to replicate the chase's allocator behavior — the
// chase rebuilds its result relation, so its allocator always restarts at
// (max surviving mark)+1 — and to roll the allocator back when a
// speculative mutation is rejected.
func (r *Relation) SetNextMark(n int) { r.nextMark = n }

// BumpVersion raises the mutation counter to at least v. Maintainers
// that *replace* a stored relation with a rebuilt one (the store's
// recheck commit adopts the chase's freshly built result) bump the new
// instance past the old one's counter so version stays monotone across
// the swap — readers and external caches rely on "version never
// decreases" to detect change cheaply.
func (r *Relation) BumpVersion(v uint64) {
	r.mu.Lock()
	if r.version < v {
		r.version = v
	}
	r.mu.Unlock()
}

// mutated records a change to the tuple storage that maintained no index:
// cached indexes go stale through the version counter, the identity index
// is dropped. Every mutating method outside delta.go must call it.
func (r *Relation) mutated() {
	r.mu.Lock()
	r.version++
	r.ident = nil
	r.mu.Unlock()
}

// noteMark keeps the fresh-mark allocator ahead of any explicitly marked
// null inserted by the caller.
func (r *Relation) noteMark(t Tuple) {
	for _, v := range t {
		if v.IsNull() && v.Mark() >= r.nextMark {
			r.nextMark = v.Mark() + 1
		}
	}
}

// ValidateTuple checks a tuple against a scheme: correct arity and
// constants drawn from the attribute domains. It takes the bare scheme so
// callers can validate without touching any relation state — the store's
// transaction staging is lock-free and may run concurrently with a
// commit that swaps the instance out.
func ValidateTuple(s *schema.Scheme, t Tuple) error { return validate(s, t, nil) }

// validate is ValidateTuple; given a dst of t's length, it also copies t
// into dst with every constant replaced by its domain's own string, found
// by the same probe that validates it — the row a relation stores.
func validate(s *schema.Scheme, t, dst Tuple) error {
	if len(t) != s.Arity() {
		return fmt.Errorf("relation %s: tuple arity %d, scheme arity %d",
			s.Name(), len(t), s.Arity())
	}
	for i, v := range t {
		if v.IsConst() {
			d := s.Domain(schema.Attr(i))
			c, ok := d.Canonical(v.Const())
			if !ok {
				return fmt.Errorf("relation %s: value %q outside domain %q of attribute %s",
					s.Name(), v.Const(), d.Name, s.AttrName(schema.Attr(i)))
			}
			v = value.NewConst(c)
		}
		if dst != nil {
			dst[i] = v
		}
	}
	return nil
}

// Insert is InsertDelta without the row number: it validates (arity,
// domains, no syntactic duplicate of a stored tuple) and appends a tuple.
func (r *Relation) Insert(t Tuple) error {
	_, err := r.InsertDelta(t)
	return err
}

// InsertUnchecked appends a tuple without arity, domain, or duplicate
// validation. It exists for evaluators that rebuild instances from already
// validated tuples, where a completion may legitimately coincide with an
// existing tuple (instances are sets semantically; a syntactic duplicate
// is harmless for truth-value computation).
//
// The caller vouches for the row in one more way: the relation stores t
// itself, not a copy, and owns it from then on. Pass a fresh row, or
// t.Clone() of one that is still written or stored elsewhere.
func (r *Relation) InsertUnchecked(t Tuple) {
	r.noteMark(t)
	r.mutated()
	r.tuples = append(r.tuples, t)
	r.cowAppend()
}

// ParseRow parses a row of cell strings into a tuple without inserting
// it: "-" is a fresh unmarked-by-name null (each occurrence gets a fresh
// mark, consuming the allocator), "-k" is the marked null ⊥k, "!" is
// nothing, anything else is a constant.
func (r *Relation) ParseRow(cells ...string) (Tuple, error) {
	t := make(Tuple, len(cells))
	for i, c := range cells {
		v, err := r.parseCell(c)
		if err != nil {
			return nil, err
		}
		t[i] = v
	}
	return t, nil
}

// InsertRow parses a row of cell strings (see ParseRow) and inserts it.
func (r *Relation) InsertRow(cells ...string) error {
	t, err := r.ParseRow(cells...)
	if err != nil {
		return err
	}
	return r.Insert(t)
}

// MustInsertRow is InsertRow for statically known-good rows.
func (r *Relation) MustInsertRow(cells ...string) {
	if err := r.InsertRow(cells...); err != nil {
		panic(err)
	}
}

func (r *Relation) parseCell(c string) (value.V, error) {
	if c == "-" {
		return r.FreshNull(), nil
	}
	return value.Parse(c)
}

// Delete removes the i-th tuple, preserving the order of the rest.
func (r *Relation) Delete(i int) {
	r.ensureOwnedSlice()
	r.mutated()
	r.tuples = append(r.tuples[:i], r.tuples[i+1:]...)
	r.cowDelete(i)
}

// Clone returns a deep copy of the instance.
func (r *Relation) Clone() *Relation {
	out := &Relation{scheme: r.scheme, nextMark: r.nextMark}
	out.tuples = make([]Tuple, len(r.tuples))
	for i, t := range r.tuples {
		out.tuples[i] = t.Clone()
	}
	return out
}

// SetCell overwrites one cell (SetCellDelta under its older name); used by
// the Section 4 X-side rules when they substitute a null.
func (r *Relation) SetCell(i int, a schema.Attr, v value.V) { r.SetCellDelta(i, a, v) }

// HasNulls reports whether any tuple has a null anywhere.
func (r *Relation) HasNulls() bool {
	all := r.scheme.All()
	for _, t := range r.tuples {
		if t.HasNullOn(all) {
			return true
		}
	}
	return false
}

// HasNothing reports whether any cell is the inconsistent element; per
// Theorem 4(b), a minimally incomplete instance is weakly satisfiable iff
// this is false.
func (r *Relation) HasNothing() bool {
	all := r.scheme.All()
	for _, t := range r.tuples {
		if t.HasNothingOn(all) {
			return true
		}
	}
	return false
}

// NullCount returns the total number of null cells.
func (r *Relation) NullCount() int {
	n := 0
	for _, t := range r.tuples {
		for _, v := range t {
			if v.IsNull() {
				n++
			}
		}
	}
	return n
}

// Project returns the multiset projection of r on keep as a new relation
// over the projected scheme; syntactic duplicates are collapsed (projection
// is a set operation in the paper's model).
func (r *Relation) Project(name string, keep schema.AttrSet) (*Relation, error) {
	ps, _, err := r.scheme.Project(name, keep)
	if err != nil {
		return nil, err
	}
	out := New(ps)
	id := out.identityIndex()
	for _, t := range r.tuples {
		if pt := t.Project(keep); id.find(out.tuples, pt) < 0 {
			out.noteMark(pt)
			id.add(len(out.tuples), pt)
			out.tuples = append(out.tuples, pt)
		}
	}
	return out, nil
}

// Equal reports that two instances over the same scheme contain exactly the
// same tuples up to reordering (syntactic identity of cells).
func Equal(a, b *Relation) bool {
	if a.scheme.Arity() != b.scheme.Arity() || a.Len() != b.Len() {
		return false
	}
	used := make([]bool, b.Len())
	all := a.scheme.All()
outer:
	for _, t := range a.tuples {
		for j, u := range b.tuples {
			if !used[j] && t.IdenticalOn(u, all) {
				used[j] = true
				continue outer
			}
		}
		return false
	}
	return true
}

// String renders the instance as an aligned table with a header row.
func (r *Relation) String() string {
	var b strings.Builder
	p := r.scheme.Arity()
	widths := make([]int, p)
	for i := 0; i < p; i++ {
		widths[i] = len(r.scheme.AttrName(schema.Attr(i)))
	}
	rows := make([][]string, len(r.tuples))
	for ti, t := range r.tuples {
		rows[ti] = make([]string, p)
		for i, v := range t {
			s := v.String()
			rows[ti][i] = s
			if len(s) > widths[i] {
				widths[i] = len(s)
			}
		}
	}
	writeRow := func(cells func(i int) string) {
		line := ""
		for i := 0; i < p; i++ {
			if i > 0 {
				line += "  "
			}
			line += fmt.Sprintf("%-*s", widths[i], cells(i))
		}
		b.WriteString(strings.TrimRight(line, " "))
		b.WriteByte('\n')
	}
	writeRow(func(i int) string { return r.scheme.AttrName(schema.Attr(i)) })
	for _, row := range rows {
		row := row
		writeRow(func(i int) string { return row[i] })
	}
	return b.String()
}

// CompletionLimit bounds the tuples the enumeration helpers materialize
// (completions of a tuple; rows × completions of a relation): the least-
// extension definition is exponential, ground truth on small instances only.
const CompletionLimit = 1 << 20

// ErrTooManyCompletions is returned when a completion enumeration would
// exceed CompletionLimit.
var ErrTooManyCompletions = fmt.Errorf("relation: completion set exceeds %d elements", CompletionLimit)

// TupleCompletions enumerates AP(t, X): every way of substituting domain
// constants for the nulls of t on the attributes of set. Nulls sharing a
// mark receive the same substitution in each completion (they denote the
// same unknown value). Attributes outside set are copied unchanged.
// Cells that are `nothing` admit no completion: the result is empty, since
// no constant tuple approximates a contradiction.
func TupleCompletions(s *schema.Scheme, t Tuple, set schema.AttrSet) ([]Tuple, error) {
	if t.HasNothingOn(set) {
		return nil, nil
	}
	rows := func(int) Tuple { return t }
	marks, doms, total, err := completionSpace(s, 1, rows, set)
	if err != nil {
		return nil, err
	}
	out := make([]Tuple, 0, total)
	cur := []Tuple{t.Clone()}
	substitute(cur, rows, set, marks, doms, func() { out = append(out, cur[0].Clone()) })
	return out, nil
}

// completionSpace is the one completion-count test, run before any
// enumeration copies a row. It maps every mark among the null cells of the
// n rows on set to the domain its substitutions range over — the
// intersection of its cells' domains, since one mark denotes one value —
// and lists the marks ascending. The count is n times the product of those
// domains' sizes, multiplied in mark order; it fails with
// ErrTooManyCompletions as soon as a partial product passes
// CompletionLimit.
func completionSpace(s *schema.Scheme, n int, row func(int) Tuple, set schema.AttrSet) (marks []int, doms map[int]*schema.Domain, total int, err error) {
	doms = map[int]*schema.Domain{}
	for i := 0; i < n; i++ {
		t := row(i)
		for v := uint64(set); v != 0; v &= v - 1 {
			a := schema.Attr(bits.TrailingZeros64(v))
			if !t[a].IsNull() {
				continue
			}
			m := t[a].Mark()
			switch d, ok := doms[m]; {
			case !ok:
				doms[m] = s.Domain(a)
				marks = append(marks, m)
			case d != s.Domain(a):
				doms[m] = intersectDomains(d, s.Domain(a))
			}
		}
	}
	sort.Ints(marks)
	total = n
	for _, m := range marks {
		total *= doms[m].Size()
		if total > CompletionLimit {
			return nil, nil, 0, ErrTooManyCompletions
		}
	}
	return marks, doms, total, nil
}

// cell addresses one null cell of an enumeration: row ti, attribute a.
type cell struct {
	ti int
	a  schema.Attr
}

// substitute calls emit once per completion of the rows read through row:
// cur, a copy of those rows, holds every combination of the ascending
// marks' domain values in the marks' cells on set, each cell restored
// afterwards.
func substitute(cur []Tuple, row func(int) Tuple, set schema.AttrSet, marks []int, doms map[int]*schema.Domain, emit func()) {
	pos := make(map[int]int, len(marks))
	for k, m := range marks {
		pos[m] = k
	}
	cells := make([][]cell, len(marks)) // each mark's cells, row-major
	for i := range cur {
		for v := uint64(set); v != 0; v &= v - 1 {
			if a := schema.Attr(bits.TrailingZeros64(v)); row(i)[a].IsNull() {
				k := pos[row(i)[a].Mark()]
				cells[k] = append(cells[k], cell{i, a})
			}
		}
	}
	var rec func(k int)
	rec = func(k int) {
		if k == len(marks) {
			emit()
			return
		}
		for _, c := range doms[marks[k]].Values {
			for _, cl := range cells[k] {
				cur[cl.ti][cl.a] = value.NewConst(c)
			}
			rec(k + 1)
		}
		for _, cl := range cells[k] {
			cur[cl.ti][cl.a] = row(cl.ti)[cl.a]
		}
	}
	rec(0)
}

func intersectDomains(a, b *schema.Domain) *schema.Domain {
	var vals []string
	for _, v := range a.Values {
		if b.Contains(v) {
			vals = append(vals, v)
		}
	}
	return &schema.Domain{Name: a.Name + "∩" + b.Name, Values: vals}
}

// CompletionCount returns |AP(t, set)| without materializing it.
func CompletionCount(s *schema.Scheme, t Tuple, set schema.AttrSet) int {
	if t.HasNothingOn(set) {
		return 0
	}
	seen := map[int]int{} // mark -> domain size (min across attrs)
	for _, a := range set.Attrs() {
		v := t[a]
		if !v.IsNull() {
			continue
		}
		sz := s.Domain(a).Size()
		if old, ok := seen[v.Mark()]; !ok || sz < old {
			seen[v.Mark()] = sz
		}
	}
	total := 1
	for _, sz := range seen {
		total *= sz
	}
	return total
}

// RelationCompletions enumerates AP(r, set): the set of relations obtained
// by completing every tuple's nulls on set (projected onto set's attributes
// being the caller's business — tuples keep full arity here). Marks are
// scoped per relation: the same mark in two tuples co-varies. r is read
// through Scheme, Len and Tuple only, so a caller can enumerate a
// sub-instance — a relation less one row, say — without building it; the
// completion count is checked before any row is copied.
func RelationCompletions(r interface {
	Scheme() *schema.Scheme
	Len() int
	Tuple(i int) Tuple
}, set schema.AttrSet) ([]*Relation, error) {
	n := r.Len()
	for i := 0; i < n; i++ {
		if r.Tuple(i).HasNothingOn(set) {
			return nil, nil // a contradiction admits no completion
		}
	}
	marks, doms, _, err := completionSpace(r.Scheme(), n, r.Tuple, set)
	if err != nil {
		return nil, err
	}
	cur := New(r.Scheme())
	for i := 0; i < n; i++ {
		cur.noteMark(r.Tuple(i))
		cur.tuples = append(cur.tuples, r.Tuple(i).Clone())
	}
	if len(marks) == 0 {
		return []*Relation{cur}, nil
	}
	var out []*Relation
	substitute(cur.tuples, r.Tuple, set, marks, doms, func() { out = append(out, cur.Clone()) })
	return out, nil
}

// FromRows builds an instance from parsed rows; see InsertRow for the cell
// syntax.
func FromRows(s *schema.Scheme, rows ...[]string) (*Relation, error) {
	r := New(s)
	for _, row := range rows {
		if err := r.InsertRow(row...); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// MustFromRows is FromRows for statically known-good inputs.
func MustFromRows(s *schema.Scheme, rows ...[]string) *Relation {
	r, err := FromRows(s, rows...)
	if err != nil {
		panic(err)
	}
	return r
}

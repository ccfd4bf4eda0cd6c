// Package chase implements Section 6 of the paper: Null-Equality
// Constraints (Definition 1), the Null-Substitution rules (Definition 2),
// minimally incomplete instances, and the extended rule system with the
// `nothing` (inconsistent) element that makes the rules a finite
// Church–Rosser system (Theorem 4, proved via congruence closure in
// [Graham 80] / [Downey–Sethi–Tarjan 80]).
//
// # Symbols and classes
//
// Every cell of the instance denotes a symbol: a constant, or a marked
// null. The chase maintains a union-find over symbols:
//
//   - applying NS-rule (a) — one side null, the other a constant — unions
//     the null's class with the constant's class (the substitution);
//   - applying NS-rule (b) — both sides null — unions the two null classes
//     (introducing the NEC t_i[Y] := t_j[Y]);
//   - in the extended system, two *distinct constants* forced together
//     poison the class: every member cell becomes `nothing`, and — exactly
//     as the paper specifies — so does every other occurrence of those
//     constants ("the replacement with nothing of all constants that are
//     equal to them").
//
// The plain system of Definition 2 never merges distinct constants, and is
// *not* confluent: the order of rule application can matter (the paper's
// Figure 5 example, reproduced in the tests). The extended system is
// confluent; Theorem 4(b) reduces weak satisfiability of F in r to the
// absence of `nothing` in the unique normal form.
//
// # One production path and its oracle
//
// Because the extended normal form is unique, which engine computes it
// is not a choice a caller has to make: Run computes it with the
// congruence-closure passes, and that is what the store, the query
// layer, the CLIs and the fdnull facade run. The pairwise passes of the
// paper's own analysis stay for two jobs only — they are the one
// implementation of the plain system (which has no engine-independent
// answer, so Run in Mode: Plain always runs them, in RuleOrder), and
// RunPairwise is the oracle the tests and fdbench's E5/E10 compare the
// congruence engine against. A congruence pass costs
// per FD, not per tuple: tuples bucket on a maphash of their X-cells'
// class roots, equalOn confirms a bucket, and one bucket table serves
// every FD and pass.
package chase

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"hash/maphash"
	"slices"
	"sort"

	"fdnull/internal/fd"
	"fdnull/internal/relation"
	"fdnull/internal/schema"
	"fdnull/internal/value"
)

// Mode selects the rule system.
type Mode int

const (
	// Extended is Definition 2 plus the merge of distinct constants into
	// `nothing` (Section 6's extension before Theorem 4). Confluent, so
	// its normal form does not depend on the engine; the zero value.
	Extended Mode = iota
	// Plain is Definition 2 exactly: NS-rules fire only when at least one
	// of the Y-cells is null. Not confluent, so it always runs the
	// pairwise passes in the stated rule order.
	Plain
)

func (m Mode) String() string {
	if m == Plain {
		return "plain"
	}
	return "extended"
}

// Result reports the outcome of a chase.
type Result struct {
	// Relation is the resolved instance: substituted nulls are written
	// back, surviving nulls are renamed to canonical marks (the smallest
	// mark of their NEC class, so same-class nulls share a mark), and
	// poisoned cells hold `nothing`; its allocator starts at (max
	// surviving mark)+1. It shares each row the chase did not change with
	// the input, copy-on-write as after a View of the input: the input's
	// next structural write pays one O(n) slice copy.
	Relation *relation.Relation
	// NECs lists the nontrivial equivalence classes of surviving null
	// marks (original marks, ascending within a class).
	NECs [][]int
	// Consistent reports the absence of `nothing` — per Theorem 4(b),
	// under Extended mode this decides weak satisfiability of F in r.
	Consistent bool
	// Passes is the number of full sweeps executed.
	Passes int
	// Applications counts individual NS-rule firings (class merges).
	Applications int
	// Stuck lists classical conflicts the Plain system could not act on:
	// pairs of tuples agreeing on X with distinct constant Y-values.
	// Always empty in Extended mode (those merge into nothing instead).
	Stuck []Conflict
}

// Conflict records a classical FD violation between two tuples.
type Conflict struct {
	FD     fd.FD
	T1, T2 int
	Attr   schema.Attr
}

func (c Conflict) String() string {
	return fmt.Sprintf("tuples %d,%d conflict on attribute %d", c.T1, c.T2, c.Attr)
}

// Options configure a chase run. The zero value is the extended system:
// what the store, the CLIs and WeaklySatisfiable run.
type Options struct {
	Mode Mode
	// RuleOrder permutes the FD list; nil means given order. Exists to
	// exhibit the Plain system's order dependence.
	RuleOrder []int
	// MaxPasses bounds the sweeps as a safety net; 0 means the
	// theoretical bound n·p+1 (every pass must merge at least one class).
	MaxPasses int
}

// Run chases r with the NS-rules for fds and returns the fixpoint. The
// input's rows are not modified (see Result.Relation). The extended system runs the
// congruence-closure passes — each pass buckets tuples by X-signature,
// the strategy of [Downey–Sethi–Tarjan 80] that Theorem 4 builds on —
// and the plain system the pairwise ones.
func Run(r *relation.Relation, fds []fd.FD, opts Options) (*Result, error) {
	return run(r, fds, opts, opts.Mode == Plain)
}

// RunPairwise is Run on the pairwise passes whatever the mode: every
// rule applied to every tuple pair, in a deterministic (RuleOrder)
// order — the paper's O(|F|·n³·p) analysis, kept as the ground truth
// the congruence passes are differentially tested against.
func RunPairwise(r *relation.Relation, fds []fd.FD, opts Options) (*Result, error) {
	return run(r, fds, opts, true)
}

func run(r *relation.Relation, fds []fd.FD, opts Options, pairwise bool) (*Result, error) {
	c, err := newChaser(r, fds, opts)
	if err != nil {
		return nil, err
	}
	c.pairwise = pairwise
	return c.run()
}

// WeaklySatisfiable decides weak satisfiability of fds in r through
// Theorem 4(b): chase with the extended rules and test for nothing.
//
// Like the paper's Section 6 machinery, the decision is made over symbols,
// i.e. under the assumption that attribute domains are large enough that a
// surviving null can always be completed with a fresh value ("in a
// carefully designed database we would expect the domain ... to be
// sufficiently large", Section 4). On very small domains an instance can
// be unsatisfiable through [F2]-style domain exhaustion even though the
// chase finds no contradiction; the paper calls that test "domain and
// state-dependent, thus having an unacceptable complexity" and excludes
// it. eval.WeakSatisfied is the (exponential) domain-aware ground truth.
func WeaklySatisfiable(r *relation.Relation, fds []fd.FD) (bool, *Result, error) {
	res, err := Run(r, fds, Options{})
	if err != nil {
		return false, nil, err
	}
	return res.Consistent, res, nil
}

// MinimallyIncomplete reports whether no NS-rule applies to r (the
// fixpoint test): r is already minimally incomplete with respect to fds.
func MinimallyIncomplete(r *relation.Relation, fds []fd.FD, mode Mode) (bool, error) {
	res, err := Run(r, fds, Options{Mode: mode})
	if err != nil {
		return false, err
	}
	return res.Applications == 0, nil
}

// chaser is the working state of one run.
type chaser struct {
	r    *relation.Relation
	fds  []fd.FD
	opts Options
	// pairwise runs passNaive instead of passCongruence.
	pairwise bool

	// symbol ids: constants and null marks get dense ids.
	constID map[string]int
	markID  map[int]int

	// cells[i*p+a] is the symbol id of cell (i, a): one n·p table.
	p     int
	cells []int

	// union-find over symbol ids.
	parent []int
	rank   []int
	info   []classInfo

	applications int
	stuck        []Conflict

	// passCongruence's bucket table: signature hash → 1 + the last tuple
	// bucketed under it, each tuple → the one bucketed before it (-1 ends a
	// chain).
	sigHead map[uint64]int32
	sigNext []int32
	sigHash maphash.Hash
}

// sigMask is all ones outside tests; a test clears it to make every
// signature collide.
var sigMask = ^uint64(0)

type classInfo struct {
	hasConst bool
	c        string
	minMark  int // smallest member mark; valid when the class has nulls
	hasMark  bool
	poisoned bool
}

func newChaser(r *relation.Relation, fds []fd.FD, opts Options) (*chaser, error) {
	consts := 0 // Σₐ min(n, |dom(a)|): interning never rehashes the constant table
	for a := range r.Scheme().Arity() {
		consts += min(r.Len(), r.Scheme().Domain(schema.Attr(a)).Size())
	}
	c := &chaser{
		r:       r,
		fds:     fds,
		opts:    opts,
		constID: make(map[string]int, consts),
		markID:  map[int]int{},
	}
	if opts.RuleOrder != nil {
		if len(opts.RuleOrder) != len(fds) {
			return nil, fmt.Errorf("chase: RuleOrder has %d entries for %d FDs", len(opts.RuleOrder), len(fds))
		}
		perm := make([]fd.FD, len(fds))
		seen := make([]bool, len(fds))
		for i, j := range opts.RuleOrder {
			if j < 0 || j >= len(fds) || seen[j] {
				return nil, fmt.Errorf("chase: RuleOrder is not a permutation")
			}
			seen[j] = true
			perm[i] = fds[j]
		}
		c.fds = perm
	}
	// One sweep gives each cell its symbol id; the class table is sized
	// by the symbols and filled from the symbol maps (the rest: nothings).
	c.p = r.Scheme().Arity()
	c.cells = make([]int, r.Len()*c.p)
	ids := 0
	for i, t := range r.Tuples() {
		for a, v := range t {
			id := ids // input nothing: a fresh symbol, of a poisoned class
			switch {
			case v.IsConst():
				id = intern(c.constID, v.Const(), id)
			case v.IsNull():
				id = intern(c.markID, v.Mark(), id)
			}
			if id == ids {
				ids++
			}
			c.cells[i*c.p+a] = id
		}
	}
	c.info = slices.Repeat([]classInfo{{poisoned: true}}, ids)
	for k, id := range c.constID {
		c.info[id] = classInfo{hasConst: true, c: k}
	}
	for m, id := range c.markID {
		c.info[id] = classInfo{minMark: m, hasMark: true}
	}
	c.parent, c.rank = make([]int, ids), make([]int, ids)
	for x := range c.parent {
		c.parent[x] = x
	}
	return c, nil
}

// intern returns key's symbol id, giving it id when it has none yet.
func intern[K comparable](ids map[K]int, key K, id int) int {
	if old, ok := ids[key]; ok {
		return old
	}
	ids[key] = id
	return id
}

// cell returns the symbol id of cell (i, a).
func (c *chaser) cell(i int, a schema.Attr) int { return c.cells[i*c.p+int(a)] }

func (c *chaser) find(x int) int {
	for c.parent[x] != x {
		c.parent[x] = c.parent[c.parent[x]]
		x = c.parent[x]
	}
	return x
}

// union merges the classes of a and b, combining class info; reports
// whether a merge happened and whether it poisoned the class.
func (c *chaser) union(a, b int) bool {
	ra, rb := c.find(a), c.find(b)
	if ra == rb {
		return false
	}
	if c.rank[ra] < c.rank[rb] {
		ra, rb = rb, ra
	}
	c.parent[rb] = ra
	if c.rank[ra] == c.rank[rb] {
		c.rank[ra]++
	}
	ia, ib := &c.info[ra], c.info[rb]
	if ib.poisoned {
		ia.poisoned = true
	}
	if ib.hasConst {
		if ia.hasConst && ia.c != ib.c {
			ia.poisoned = true
		} else {
			ia.hasConst = true
			ia.c = ib.c
		}
	}
	if ib.hasMark && (!ia.hasMark || ib.minMark < ia.minMark) {
		ia.hasMark = true
		ia.minMark = ib.minMark
	}
	c.applications++
	return true
}

func (c *chaser) run() (*Result, error) {
	maxPasses := c.opts.MaxPasses
	if maxPasses == 0 {
		maxPasses = c.r.Len()*c.r.Scheme().Arity() + 1
	}
	passes := 0
	for passes < maxPasses {
		passes++
		var changed bool
		if c.pairwise {
			changed = c.passNaive()
		} else {
			changed = c.passCongruence()
		}
		if !changed {
			break
		}
	}
	return c.result(passes), nil
}

// passNaive applies every rule to every tuple pair once, in order. Stuck
// conflicts are re-derived each sweep so the final (fixpoint) sweep leaves
// exactly one occurrence of each.
func (c *chaser) passNaive() bool {
	changed := false
	c.stuck = c.stuck[:0]
	n := c.r.Len()
	for _, f := range c.fds {
		xAttrs := f.X.Attrs()
		yAttrs := f.Y.Attrs()
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if !c.equalOn(i, j, xAttrs) {
					continue
				}
				for _, a := range yAttrs {
					if c.applyY(f, i, j, a) {
						changed = true
					}
				}
			}
		}
	}
	return changed
}

// equalOn reports t_i[X] = t_j[X] under the current classes: every pair of
// cells is in the same class (equal constants, a null bound to the same
// constant, or nulls related by NECs). Poisoned classes compare equal to
// themselves only, which keeps rule application monotone.
func (c *chaser) equalOn(i, j int, attrs []schema.Attr) bool {
	for _, a := range attrs {
		if c.find(c.cell(i, a)) != c.find(c.cell(j, a)) {
			return false
		}
	}
	return true
}

// applyY fires the NS-rule on attribute a of tuples i and j. Returns true
// if the class structure changed.
func (c *chaser) applyY(f fd.FD, i, j int, a schema.Attr) bool {
	ra, rb := c.find(c.cell(i, a)), c.find(c.cell(j, a))
	if ra == rb {
		return false
	}
	ia, ib := c.info[ra], c.info[rb]
	if c.opts.Mode == Plain {
		if ia.hasConst && ib.hasConst {
			// Distinct constants: Definition 2 has no applicable rule; the
			// pair is a classical conflict the plain system cannot touch.
			c.stuck = append(c.stuck, Conflict{FD: f, T1: i, T2: j, Attr: a})
			return false
		}
		if ia.poisoned || ib.poisoned {
			return false
		}
	}
	return c.union(ra, rb)
}

// passCongruence buckets tuples by the class roots of their X-cells and
// unions the Y-cells of each bucket. A bucket is keyed on a hash of the
// roots; equalOn confirms membership, so a collision costs a longer chain
// walk, never a wrong merge.
func (c *chaser) passCongruence() bool {
	changed := false
	n := c.r.Len()
	if c.sigHead == nil {
		c.sigHead, c.sigNext = make(map[uint64]int32, n), make([]int32, n)
	}
	for _, f := range c.fds {
		xAttrs := f.X.Attrs()
		yAttrs := f.Y.Attrs()
		clear(c.sigHead)
		for i := 0; i < n; i++ {
			c.sigHash.Reset()
			var b [8]byte
			for _, a := range xAttrs {
				binary.LittleEndian.PutUint64(b[:], uint64(c.find(c.cell(i, a))))
				c.sigHash.Write(b[:])
			}
			h := c.sigHash.Sum64() & sigMask
			head := c.sigHead[h] - 1 // -1 when nothing is bucketed under h
			first := head
			for first >= 0 && !c.equalOn(int(first), i, xAttrs) {
				first = c.sigNext[first]
			}
			if first < 0 {
				c.sigNext[i], c.sigHead[h] = head, int32(i)+1
				continue
			}
			for _, a := range yAttrs {
				if c.union(c.cell(int(first), a), c.cell(i, a)) {
					changed = true
				}
			}
		}
	}
	return changed
}

// resolve returns the value the normal form holds for symbol id.
func (c *chaser) resolve(id int) value.V {
	switch ci := &c.info[c.find(id)]; {
	case ci.poisoned:
		return value.NewNothing()
	case ci.hasConst:
		return value.NewConst(ci.c)
	default:
		return value.NewNull(ci.minMark)
	}
}

// result builds the resolved relation and class report. A row the chase
// left as it was is the input's own tuple, shared copy-on-write; the
// changed rows are carved out of one slab of changed·p cells.
func (c *chaser) result(passes int) *Result {
	rows := slices.Clone(c.r.Tuples()) // a changed row's entry goes nil
	changed, consistent := 0, true
	for i, t := range rows {
		for a, v := range t {
			w := c.resolve(c.cells[i*c.p+a])
			consistent = consistent && !w.IsNothing()
			if w != v && rows[i] != nil {
				rows[i] = nil
				changed++
			}
		}
	}
	slab := make([]value.V, changed*c.p)
	shared := make([]bool, len(rows))
	for i := range rows {
		if shared[i] = rows[i] != nil; !shared[i] {
			rows[i], slab = slab[:c.p:c.p], slab[c.p:]
			for a := range rows[i] {
				rows[i][a] = c.resolve(c.cells[i*c.p+a])
			}
		}
	}
	if changed < len(rows) {
		c.r.View() // the input's writes clone the rows it now shares
	}
	out := relation.FromTuples(c.r.Scheme(), rows, shared)
	// Collect surviving NEC classes: original marks grouped by root, for
	// roots that remained unbound nulls, classes of size ≥ 2: one sort of
	// (root, mark) pairs, so only a class allocates.
	open := make([][2]int, 0, len(c.markID))
	for m, id := range c.markID {
		if root := c.find(id); !c.info[root].poisoned && !c.info[root].hasConst {
			open = append(open, [2]int{root, m})
		}
	}
	slices.SortFunc(open, func(a, b [2]int) int { return cmp.Or(a[0]-b[0], a[1]-b[1]) })
	var necs [][]int
	for lo, hi := 0, 1; lo < len(open); lo, hi = hi, hi+1 {
		for hi < len(open) && open[hi][0] == open[lo][0] {
			hi++
		}
		if hi-lo >= 2 {
			ms := make([]int, hi-lo)
			for k, o := range open[lo:hi] {
				ms[k] = o[1]
			}
			necs = append(necs, ms)
		}
	}
	sort.Slice(necs, func(i, j int) bool { return necs[i][0] < necs[j][0] })
	return &Result{
		Relation:     out,
		NECs:         necs,
		Consistent:   consistent,
		Passes:       passes,
		Applications: c.applications,
		Stuck:        c.stuck,
	}
}

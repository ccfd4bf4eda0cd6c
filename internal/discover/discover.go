// Package discover mines the functional dependencies holding in a
// relation instance with nulls — the inverse of satisfiability checking.
//
// Discovery runs a level-wise lattice search per determined attribute:
// for each A, candidate determinant sets X ⊆ R−{A} are tested in order of
// size, and supersets of accepted determinants are pruned (only *minimal*
// FDs are reported). The two conventions of Theorems 2 and 3 yield two
// discovery flavors:
//
//   - Strong: X → A passes the strong convention — it holds under every
//     completion of the nulls (certain dependencies);
//   - Weak: X → A passes the weak convention — no pair of tuples
//     definitely violates it (dependencies consistent with the data; on
//     minimally incomplete instances this is the paper's weak
//     satisfiability per FD).
//
// Every strongly-discovered FD is also weakly discovered (the strong
// convention flags strictly more comparisons as conflicting).
//
// One production candidate-test engine and its oracle:
//
//   - EnginePartition (the zero value) answers every candidate from cached
//     null-aware stripped partitions (internal/partition): per-attribute
//     partitions are built once, level-k partitions are products of
//     cached level-(k−1) parents, and each X → A test is a refinement
//     check over π_X adjusted by the convention sidecars. The search runs
//     level-major so partitions are shared across all p targets, and the
//     candidate tests of a level fan out over a bounded worker pool.
//   - EngineNaive answers each candidate with one TEST-FDs sort scan —
//     the paper-literal path, kept as differential ground truth
//     (differential_test.go asserts FD-for-FD identical output) and
//     nameable only from tests and benchmarks, not by a user.
//
// A classical exactness property ties discovery to the rest of the
// library: discovering on an Armstrong relation of F (workload package)
// recovers a cover equivalent to F.
package discover

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"fdnull/internal/fd"
	"fdnull/internal/partition"
	"fdnull/internal/relation"
	"fdnull/internal/schema"
	"fdnull/internal/testfds"
)

// Engine selects the candidate-test strategy.
type Engine int

const (
	// EnginePartition tests candidates against cached stripped partitions
	// (the default).
	EnginePartition Engine = iota
	// EngineNaive runs one TEST-FDs sort scan per candidate; kept as the
	// ground truth the partition engine is differentially tested against.
	EngineNaive
)

// String names the engine in report headers.
func (e Engine) String() string {
	switch e {
	case EnginePartition:
		return "partition"
	case EngineNaive:
		return "naive"
	}
	return fmt.Sprintf("Engine(%d)", int(e))
}

// Options bound the search.
type Options struct {
	// MaxLHS caps determinant size; 0 means p−1 (exhaustive).
	MaxLHS int
	// Convention selects certain (Strong) or consistent (Weak)
	// dependencies.
	Convention testfds.Convention
	// Engine selects the candidate-test strategy; the zero value is
	// EnginePartition.
	Engine Engine
	// Workers bounds the worker pool testing a level's candidates; ≤0
	// means runtime.GOMAXPROCS(0).
	Workers int
}

// Run returns the minimal FDs X → A holding in r under the convention,
// for every attribute A and every minimal determinant X with
// |X| ≤ MaxLHS. The result is deterministic regardless of engine and
// worker count: attributes ascending, determinants in ascending size then
// bitmask order. The relation must not be mutated while Run executes.
func Run(r *relation.Relation, opts Options) ([]fd.FD, error) {
	s := r.Scheme()
	p := s.Arity()
	maxLHS := opts.MaxLHS
	if maxLHS <= 0 || maxLHS > p-1 {
		maxLHS = p - 1
	}
	if p > 24 {
		return nil, fmt.Errorf("discover: %d attributes exceed the lattice-search budget", p)
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	test, evict := newTester(r, opts)

	// Per-target lattice state. The search is level-major across all
	// targets so that the partition cache is shared: a determinant set
	// reached from several targets is partitioned once.
	type state struct {
		accepted []schema.AttrSet // minimal determinants found so far
		frontier []schema.AttrSet // failed candidates to extend
	}
	states := make([]state, p)
	outs := make([][]fd.FD, p)
	for a := range states {
		states[a].frontier = []schema.AttrSet{0}
	}
	type job struct {
		a  schema.Attr
		x  schema.AttrSet
		ok bool
	}
	for size := 1; size <= maxLHS; size++ {
		var jobs []job
		for a := 0; a < p; a++ {
			st := &states[a]
			rest := s.All().Remove(schema.Attr(a))
			next := expand(st.frontier, rest)
			st.frontier = st.frontier[:0]
			for _, x := range next {
				if supersetOfAny(x, st.accepted) {
					continue // a smaller determinant exists; not minimal
				}
				jobs = append(jobs, job{a: schema.Attr(a), x: x})
			}
		}
		// Fan the level's candidate tests out over the worker pool. Tests
		// only read shared immutable state (the relation, its index cache,
		// the partition cache — all safe for concurrent readers).
		if nw := min(workers, len(jobs)); nw > 1 {
			var next atomic.Int64
			var wg sync.WaitGroup
			for w := 0; w < nw; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						k := next.Add(1) - 1
						if k >= int64(len(jobs)) {
							return
						}
						j := &jobs[k]
						j.ok = test(j.x, j.a)
					}
				}()
			}
			wg.Wait()
		} else {
			for i := range jobs {
				jobs[i].ok = test(jobs[i].x, jobs[i].a)
			}
		}
		// Serial accept/extend in the deterministic job order.
		for i := range jobs {
			j := &jobs[i]
			st := &states[j.a]
			if j.ok {
				st.accepted = append(st.accepted, j.x)
				outs[j.a] = append(outs[j.a], fd.New(j.x, schema.NewAttrSet(j.a)))
			} else {
				st.frontier = append(st.frontier, j.x)
			}
		}
		evict(size)
	}
	var out []fd.FD
	for a := 0; a < p; a++ {
		out = append(out, outs[a]...)
	}
	return out, nil
}

// newTester returns the candidate test of the selected engine plus the
// end-of-level hook (partition cache eviction; a no-op for the naive
// engine).
func newTester(r *relation.Relation, opts Options) (func(schema.AttrSet, schema.Attr) bool, func(int)) {
	if opts.Engine == EngineNaive {
		conv := opts.Convention
		return func(x schema.AttrSet, a schema.Attr) bool {
			ok, _ := testfds.Check(r, []fd.FD{fd.New(x, schema.NewAttrSet(a))}, conv, testfds.Sorted)
			return ok
		}, func(int) {}
	}
	ck := partition.NewChecker(r, opts.Convention)
	return ck.Holds, ck.Cache().EvictBelow
}

// expand grows each set by one attribute above its current maximum, so
// every k-set is generated exactly once — from its unique (k−1)-prefix —
// with no dedup bookkeeping. The result is returned in ascending bitmask
// order (children of different parents interleave, so a sort is needed).
func expand(level []schema.AttrSet, pool schema.AttrSet) []schema.AttrSet {
	var out []schema.AttrSet
	for _, x := range level {
		for _, a := range pool.Diff(x).Attrs() {
			if !x.Empty() && a <= maxAttr(x) {
				continue
			}
			out = append(out, x.Add(a))
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func maxAttr(x schema.AttrSet) schema.Attr {
	attrs := x.Attrs()
	return attrs[len(attrs)-1]
}

func supersetOfAny(x schema.AttrSet, accepted []schema.AttrSet) bool {
	for _, a := range accepted {
		if a.SubsetOf(x) {
			return true
		}
	}
	return false
}

// Cover runs discovery and reduces the result to a minimal cover —
// convenient when the instance is an Armstrong-style fixture and the
// caller wants the generating dependencies back.
func Cover(r *relation.Relation, opts Options) ([]fd.FD, error) {
	fds, err := Run(r, opts)
	if err != nil {
		return nil, err
	}
	return fd.MinimalCover(fds), nil
}

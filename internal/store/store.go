// Package store implements a constraint-maintaining relation store: the
// modification-operations layer the paper's concluding remarks call for
// ("more research is needed on the semantics of the ways a database
// acquires information ... internal (non-ambiguous substitution of nulls)
// or external (modification operations by the users)").
//
// A Store holds one instance kept *minimally incomplete* with respect to
// its FD set:
//
//   - external acquisition — Insert/Update/Delete by the user — is guarded
//     by weak satisfiability: a mutation whose extended chase produces
//     `nothing` is rejected with the chase witness, and the store is left
//     unchanged;
//   - internal acquisition — the NS-rules — runs after every accepted
//     mutation, substituting exactly the nulls the dependencies force
//     ("the only value that a user can insert without the creation of an
//     inconsistency") and recording the induced NEC classes as shared
//     marks.
//
// The stored instance therefore always weakly satisfies F, and every
// stored constant is a certain consequence of user-provided data.
// Section 4's X-side substitution rules are domain-dependent and, as the
// paper recommends, not part of the maintained invariant; they stay
// available on a relation as chase.ApplyXSubstitutions.
//
// # One write path, one maintenance engine and its oracle
//
// Every mutation is a write-set applied structurally and then checked
// once (txn.go): Txn.Commit carries k staged ops, and Insert, InsertRow,
// Update and Delete are the one-op case of the same prepare and apply —
// the NS-closure of a set of changes does not depend on the order they
// are processed in (Theorem 4), so the two cannot differ.
//
// The store maintains the invariant incrementally, and that is the only
// engine a constructor other than NewRecheckOracle builds: the stored
// instance is always a chase fixpoint, so a delta can only fire NS-rules
// inside the partition groups it touches, and the engine applies the
// write-set in place and sweeps just those groups, propagating forced
// substitutions through a worklist over the delta-maintained X-partition
// indexes (incremental.go) — O(affected groups) per accepted commit, one
// sweep per group however many of its rows the write-set staged. The
// recheck preparer is its oracle: clone the instance, apply the
// write-set, run one extended chase — O(n) per commit. It is what
// rejections delegate to, and what a store built by NewRecheckOracle
// commits through, which is how history_test.go, txn_history_test.go
// and the other lockstep exercisers replay randomized operation histories
// against it: the two agree verdict-for-verdict and state-for-state,
// tuple order included.
//
// # One handle, one lock
//
// A Store is safe for concurrent use: writers serialize behind its
// write lock, and readers share the read lock. A read is one of two
// kinds. Query, CheckWeak, CheckStrong, Len and Find evaluate on the
// live relation and hold the read lock for their own length — a planned
// selection is a few index probes, and the indexes it probes are the
// ones the writers keep fresh. View takes an O(1) copy-on-write view
// under the read lock, and everything after that works lock-free on
// immutable data — the snapshot-then-analyze pattern for anything long
// (discovery, reports, a stable cut across several reads), which a
// writer should not wait for. A transaction reads its base under the
// read lock at Begin, stages without any lock, and takes the write lock
// at Commit (txn.go).
//
// The store is the unit of isolation AND of durability: OpenDurable
// (recovery.go) returns a *Store that write-ahead logs every accepted
// commit under the write lock, and Err / Sync / Checkpoint / Close /
// Health / Recover (recovery.go, faults.go) are its durability surface —
// no-ops on an in-memory store. The lock is not reentrant, so code that
// already holds it reaches the instance through st.rel and the
// unexported helpers, never through an exported method.
package store

import (
	"errors"
	"fmt"
	"sync"

	"fdnull/internal/chase"
	"fdnull/internal/fd"
	"fdnull/internal/relation"
	"fdnull/internal/schema"
	"fdnull/internal/testfds"
	"fdnull/internal/value"
)

// Options is a fieldless struct that configures nothing: a store has
// one maintenance engine, and the recheck oracle is a constructor
// (NewRecheckOracle), not an option. It remains only as New's third
// parameter, which the repository benchmark still passes.
type Options struct{}

// Store is a relation instance guarded by a set of functional
// dependencies under weak satisfiability. It is safe for concurrent use:
// mutations take the write lock, and the read accessors take the read
// lock, so any number of readers proceed in parallel with each other. On
// a durable handle a mutation is refused, with the instance unchanged,
// once the handle is degraded (ErrDegraded) or closed
// (ErrDurableClosed).
type Store struct {
	// mu guards every field below but scheme and fds, which are fixed at
	// construction. Every exported method but Scheme and FDs takes it
	// exactly once.
	mu     sync.RWMutex
	scheme *schema.Scheme
	fds    []fd.FD
	rel    *relation.Relation
	// recheck commits through the recheck preparer, the per-commit
	// oracle (txn.go); only NewRecheckOracle sets it.
	recheck bool
	marks   map[int][]cellRef // mark → cells, the incremental engine's (incremental.go); nil until its first commit
	prop    propagation       // the incremental engine's commit scratch (incremental.go)
	// mutation counters, exposed for observability and tests.
	inserts, updates, deletes, rejected int
	// wal is the durability state OpenDurable attaches (recovery.go); nil
	// for an in-memory store, which every *durable method treats as "no
	// WAL". Each commit path calls wal.gate() before touching any state
	// and wal.logRecord() once the commit is applied.
	wal *durable
}

// ErrInconsistent is the sentinel every constraint rejection matches:
// errors.Is(err, ErrInconsistent) reports whether a mutation (or a
// transaction commit) was refused because the dependencies admit no
// completion of the tentative instance — as opposed to a structural
// error (arity, domain, duplicate, out-of-range index), which does not
// match. Callers should branch on this sentinel, never on error text.
var ErrInconsistent = errors.New("store: the dependencies admit no completion")

// InconsistencyError reports a rejected mutation: the chase of the
// tentative instance produced `nothing`. It wraps ErrInconsistent, so
// errors.Is(err, ErrInconsistent) matches it (and anything wrapping it,
// like a TxnError).
type InconsistencyError struct {
	Op string
	// Chase is the normal form of the *rejected* tentative instance; its
	// `!` cells witness the unavoidable conflict.
	Chase *chase.Result
}

func (e *InconsistencyError) Error() string {
	return fmt.Sprintf("store: %s rejected: the dependencies admit no completion (chase found a contradiction)", e.Op)
}

// Unwrap ties the witness-carrying error to the ErrInconsistent
// sentinel for errors.Is chains.
func (e *InconsistencyError) Unwrap() error { return ErrInconsistent }

// New creates an empty store over s guarded by fds.
func New(s *schema.Scheme, fds []fd.FD, _ Options) *Store {
	return &Store{scheme: s, fds: fds, rel: relation.New(s)}
}

// FromRelation builds a store over an existing instance, chasing it once
// (one O(n) pass instead of n guarded inserts) and rejecting instances
// that contradict the dependencies. r's rows are only read: the stored
// instance shares those the chase left unchanged with r copy-on-write,
// so r's next structural write pays one O(n) slice copy.
func FromRelation(s *schema.Scheme, fds []fd.FD, r *relation.Relation) (*Store, error) {
	res, err := chase.Run(r, fds, chase.Options{})
	if err != nil {
		return nil, err
	}
	if !res.Consistent {
		return nil, &InconsistencyError{Op: "load", Chase: res}
	}
	cur := res.Relation
	// The chase rebuilds its result relation, resetting the fresh-mark
	// allocator to (max surviving mark)+1; carry r's watermark over so a
	// mark the source already spent is never recycled and silently
	// aliased with an unrelated unknown.
	if nm := r.NextMark(); nm > cur.NextMark() {
		cur.SetNextMark(nm)
	}
	return &Store{scheme: s, fds: fds, rel: cur}, nil
}

// NewRecheckOracle is FromRelation for the oracle: the store it builds
// commits every write-set by cloning the instance, applying the set and
// running one extended chase, O(n) per commit. It exists for the
// differential tests, which hold the incremental engine to it verdict
// for verdict and state for state.
func NewRecheckOracle(s *schema.Scheme, fds []fd.FD, r *relation.Relation) (*Store, error) {
	st, err := FromRelation(s, fds, r)
	if err != nil {
		return nil, err
	}
	st.recheck = true
	return st, nil
}

// Scheme returns the store's scheme. It is fixed at construction, so
// Scheme and FDs take no lock.
func (st *Store) Scheme() *schema.Scheme { return st.scheme }

// FDs returns the guarding dependencies.
func (st *Store) FDs() []fd.FD { return append([]fd.FD(nil), st.fds...) }

// Len returns the number of stored tuples.
func (st *Store) Len() int {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return st.rel.Len()
}

// NextMark returns the fresh-mark allocator watermark: the mark the next
// FreshNull (or "-" cell) would take. Save, checkpoints, and WAL records
// persist it so a recycled mark can never alias an unrelated unknown.
func (st *Store) NextMark() int {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return st.rel.NextMark()
}

// Snapshot returns a deep copy of the stored (minimally incomplete)
// instance, allocator watermark included. The copy is materialized from
// a View outside the lock, so writers wait only for the O(1) view. For
// read-only iteration prefer View itself.
func (st *Store) Snapshot() *relation.Relation {
	st.mu.RLock()
	view, watermark := st.rel.View(), st.rel.NextMark()
	st.mu.RUnlock()
	out := view.Materialize()
	out.SetNextMark(watermark)
	return out
}

// View returns an O(1) copy-on-write snapshot of the stored instance,
// taken under the read lock. The view is immutable and safe to read
// without any lock: the store clones only the rows later mutations
// actually touch, so writers pay for what they touch, never the readers.
func (st *Store) View() relation.View {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return st.rel.View()
}

// Tuple returns a copy of the i-th stored tuple.
func (st *Store) Tuple(i int) relation.Tuple {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return st.rel.Tuple(i).Clone()
}

// Find returns the index of the stored tuple syntactically identical to
// t (same constants, marks, and nothings), or -1. Every delete is a
// swap-and-pop, so a tuple's index changes when an
// earlier one is deleted; content lookup is the stable way to address
// one tuple across mutations.
func (st *Store) Find(t relation.Tuple) int {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return st.rel.FindIdentical(t)
}

// Each calls fn for every stored tuple in order without copying; fn
// returning false stops the iteration. It runs under the read lock, so
// fn must not mutate the tuples, retain them, or call into the store.
func (st *Store) Each(fn func(i int, t relation.Tuple) bool) {
	st.mu.RLock()
	defer st.mu.RUnlock()
	for i, t := range st.rel.Tuples() {
		if !fn(i, t) {
			return
		}
	}
}

// Version returns the stored relation's mutation counter; it increases
// on every accepted mutation (and never decreases), so readers can
// detect change cheaply.
func (st *Store) Version() uint64 {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return st.rel.Version()
}

// FreshNull allocates a null mark unused in the store; it advances the
// allocator, so it takes the write lock.
func (st *Store) FreshNull() value.V {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.rel.FreshNull()
}

// Stats reports the mutation counters: inserts, updates, deletes
// accepted, and mutations rejected.
func (st *Store) Stats() (inserts, updates, deletes, rejected int) {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return st.inserts, st.updates, st.deletes, st.rejected
}

// perOpNames spells the operation an InconsistencyError from a per-op
// mutation names.
var perOpNames = [...]string{txnInsert: "insert", txnUpdate: "update", txnDelete: "delete"}

// commitOne runs a per-op mutation as what it is — a one-op write-set:
// the same gate, prepare and apply as Txn.Commit, logged as a per-op
// record. Per-op callers see the rejection itself rather than the
// write-set wrapper: the bare structural error, or the
// *InconsistencyError naming the operation. It takes the write lock.
func (st *Store) commitOne(op txnOp) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	if err := st.wal.gate(); err != nil {
		return err
	}
	p, err := st.prepareTxn([]txnOp{op})
	if err != nil {
		var te *TxnError
		if !errors.As(err, &te) {
			return err
		}
		var ie *InconsistencyError
		if errors.As(te.Err, &ie) {
			ie.Op = perOpNames[op.kind]
		}
		return te.Err
	}
	p.apply()
	return st.wal.logRecord(recPerOp, p.preMark, p.ops)
}

// Insert adds a tuple (validated against the scheme) and re-establishes
// minimal incompleteness. On contradiction the insert is rejected and the
// store unchanged.
func (st *Store) Insert(t relation.Tuple) error {
	return st.commitOne(txnOp{kind: txnInsert, t: t})
}

// InsertRow parses and inserts a row of cell strings ("-" fresh null,
// "-k" marked null, constants otherwise). The raw cells are what gets
// logged, not the parsed tuple: replay re-parses from the identical
// allocator state, so "-" cells draw the same fresh marks.
func (st *Store) InsertRow(cells ...string) error {
	return st.commitOne(txnOp{kind: txnInsert, row: cells})
}

// Update overwrites one cell and re-establishes minimal incompleteness.
// Overwriting a constant with a different constant is a revision and is
// re-checked like any other mutation; overwriting anything with a fresh
// null is an information retraction and is allowed.
func (st *Store) Update(ti int, a schema.Attr, v value.V) error {
	return st.commitOne(txnOp{kind: txnUpdate, ti: ti, a: a, v: v})
}

// validateUpdate is the structural half of an update, shared by eager
// transaction staging and the apply path (txn.go) so error texts cannot
// drift between them. It returns v as stored (Domain.Canonical).
func validateUpdate(s *schema.Scheme, n, ti int, a schema.Attr, v value.V) (value.V, error) {
	if ti < 0 || ti >= n {
		return v, fmt.Errorf("store: update of tuple %d out of range", ti)
	}
	if int(a) < 0 || int(a) >= s.Arity() {
		return v, fmt.Errorf("store: update of attribute %d out of range", a)
	}
	switch {
	case v.IsNothing():
		return v, fmt.Errorf("store: the inconsistent element cannot be stored")
	case v.IsNull() && v.Mark() < 1:
		return v, fmt.Errorf("store: null mark %d cannot be stored: marks start at 1", v.Mark())
	case !v.IsConst():
		return v, nil
	}
	c, ok := s.Domain(a).Canonical(v.Const())
	if !ok {
		return v, fmt.Errorf("store: value %q outside domain %q", v.Const(), s.Domain(a).Name)
	}
	return value.NewConst(c), nil
}

// Delete removes a tuple by swap-and-pop: the last tuple moves into the
// hole. Deletion cannot introduce a
// violation (rules need pairs, and no surviving pair changed).
func (st *Store) Delete(ti int) error {
	return st.commitOne(txnOp{kind: txnDelete, ti: ti})
}

// CheckStrong reports whether the stored instance strongly satisfies the
// dependencies (TEST-FDs under the strong convention, Theorem 2).
func (st *Store) CheckStrong() bool {
	st.mu.RLock()
	defer st.mu.RUnlock()
	ok, _ := testfds.StrongSatisfied(st.rel, st.fds)
	return ok
}

// CheckWeak re-verifies weak satisfiability of the stored instance via
// TEST-FDs under the weak convention (Theorem 3) — always true by the
// store's invariant; exposed for auditing and tests.
func (st *Store) CheckWeak() bool {
	st.mu.RLock()
	defer st.mu.RUnlock()
	ok, _ := testfds.WeakSatisfiedMinimallyIncomplete(st.rel, st.fds)
	return ok
}

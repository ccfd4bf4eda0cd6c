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
//     marks;
//   - optionally the Section 4 X-side substitution rules run as well
//     (ApplyXRules), completing determinant nulls when the domain forces
//     them.
//
// The stored instance therefore always weakly satisfies F, and every
// stored constant is a certain consequence of user-provided data.
//
// # One write path, one maintenance engine and its oracle
//
// Every mutation is a write-set applied structurally and then checked
// once (txn.go): Txn.Commit carries k staged ops, and Insert, InsertRow,
// Update and Delete are the one-op case of the same prepare and apply —
// the NS-closure of a set of changes does not depend on the order they
// are processed in (Theorem 4), so the two cannot differ.
//
// MaintenanceIncremental — the zero value of Options, and the only
// engine a CLI flag, a tenant config or the fdnull facade can reach —
// exploits that the stored instance is always a chase fixpoint: a delta
// can only fire NS-rules inside the partition groups it touches, so the
// engine applies the write-set in place and sweeps just those groups,
// propagating forced substitutions through a worklist over the
// delta-maintained X-partition indexes (incremental.go) — O(affected
// groups) per accepted commit, one sweep per group however many of its
// rows the write-set staged. MaintenanceRecheck is its oracle: clone the
// instance, apply the write-set, run one extended chase — O(n) per
// commit. It is what rejections and ApplyXRules stores delegate to, and
// what history_test.go and txn_history_test.go replay randomized
// operation histories against: the two agree verdict-for-verdict and
// state-for-state, tuple order included.
package store

import (
	"errors"
	"fmt"

	"fdnull/internal/chase"
	"fdnull/internal/fd"
	"fdnull/internal/relation"
	"fdnull/internal/schema"
	"fdnull/internal/testfds"
	"fdnull/internal/value"
)

// Maintenance selects the engine that re-establishes the store invariant
// after each mutation.
type Maintenance int

const (
	// MaintenanceIncremental re-verifies only the partition groups the
	// write-set touches and propagates NS-substitutions from the staged
	// rows (the default).
	MaintenanceIncremental Maintenance = iota
	// MaintenanceRecheck clones the instance and re-chases it from
	// scratch on every commit; kept as the differential ground truth
	// the incremental engine is tested against.
	MaintenanceRecheck
)

// String returns the WAL manifest spelling of the engine.
func (m Maintenance) String() string {
	switch m {
	case MaintenanceIncremental:
		return "incremental"
	case MaintenanceRecheck:
		return "recheck"
	}
	return fmt.Sprintf("Maintenance(%d)", int(m))
}

// parseMaintenance reads the engine a WAL manifest was written under.
func parseMaintenance(s string) (Maintenance, error) {
	switch s {
	case "incremental":
		return MaintenanceIncremental, nil
	case "recheck":
		return MaintenanceRecheck, nil
	}
	return 0, fmt.Errorf("store: unknown maintenance engine %q (want incremental or recheck)", s)
}

// Options configure a store.
type Options struct {
	// ApplyXRules additionally runs the Section 4 X-side substitution
	// rules after each mutation (domain-dependent; off by default, as the
	// paper recommends). The X-rules scan the whole instance, so they
	// force the recheck path regardless of Maintenance.
	ApplyXRules bool
	// Maintenance selects the invariant-maintenance engine; the zero
	// value is MaintenanceIncremental.
	Maintenance Maintenance
}

// Store is a relation instance guarded by a set of functional
// dependencies under weak satisfiability. It is not safe for concurrent
// use; Concurrent wraps it in a reader/writer-locked facade, which is
// also the only handle a durable store is reachable through.
type Store struct {
	scheme *schema.Scheme
	fds    []fd.FD
	rel    *relation.Relation
	opts   Options
	marks  map[int][]cellRef // mark → cells, the incremental engine's (incremental.go); nil until its first commit
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
func New(s *schema.Scheme, fds []fd.FD, opts Options) *Store {
	return &Store{scheme: s, fds: fds, rel: relation.New(s), opts: opts}
}

// FromRelation builds a store over an existing instance, chasing it once
// (one O(n) pass instead of n guarded inserts) and rejecting instances
// that contradict the dependencies. r is only read: the chase builds the
// stored instance afresh.
func FromRelation(s *schema.Scheme, fds []fd.FD, r *relation.Relation, opts Options) (*Store, error) {
	st := New(s, fds, opts)
	cur, rejected, err := st.resolve(r)
	if err != nil {
		return nil, err
	}
	if rejected != nil {
		return nil, &InconsistencyError{Op: "load", Chase: rejected}
	}
	// The chase rebuilds its result relation, resetting the fresh-mark
	// allocator to (max surviving mark)+1; carry r's watermark over so a
	// mark the source already spent is never recycled and silently
	// aliased with an unrelated unknown.
	if nm := r.NextMark(); nm > cur.NextMark() {
		cur.SetNextMark(nm)
	}
	st.rel = cur
	return st, nil
}

// Scheme returns the store's scheme.
func (st *Store) Scheme() *schema.Scheme { return st.scheme }

// FDs returns the guarding dependencies.
func (st *Store) FDs() []fd.FD { return append([]fd.FD(nil), st.fds...) }

// Len returns the number of stored tuples.
func (st *Store) Len() int { return st.rel.Len() }

// NextMark returns the fresh-mark allocator watermark: the mark the next
// FreshNull (or "-" cell) would take. Save, checkpoints, and WAL records
// persist it so a recycled mark can never alias an unrelated unknown.
func (st *Store) NextMark() int { return st.rel.NextMark() }

// Snapshot returns a deep copy of the stored (minimally incomplete)
// instance. For read-only iteration prefer View, which is O(1).
func (st *Store) Snapshot() *relation.Relation { return st.rel.Clone() }

// View returns an O(1) copy-on-write snapshot of the stored instance:
// the store clones only the rows later mutations actually touch, and the
// view never observes them.
func (st *Store) View() relation.View { return st.rel.View() }

// Tuple returns a copy of the i-th stored tuple. For read-only access
// prefer TupleView, which does not allocate.
func (st *Store) Tuple(i int) relation.Tuple { return st.rel.Tuple(i).Clone() }

// TupleView returns the i-th stored tuple without copying. The caller
// must not mutate it and must not retain it across mutations (take a
// View for that).
func (st *Store) TupleView(i int) relation.Tuple { return st.rel.Tuple(i) }

// Find returns the index of the stored tuple syntactically identical to
// t (same constants, marks, and nothings), or -1. Every delete is a
// swap-and-pop, under either engine, so a tuple's index changes when an
// earlier one is deleted; content lookup is the stable way to address
// one tuple across mutations.
func (st *Store) Find(t relation.Tuple) int { return st.rel.FindIdentical(t) }

// Each calls fn for every stored tuple in order without copying; fn
// returning false stops the iteration. The tuples must not be mutated.
func (st *Store) Each(fn func(i int, t relation.Tuple) bool) {
	for i, t := range st.rel.Tuples() {
		if !fn(i, t) {
			return
		}
	}
}

// Version returns the stored relation's mutation counter; it increases
// on every accepted mutation (and never decreases), so readers can
// detect change cheaply.
func (st *Store) Version() uint64 { return st.rel.Version() }

// FreshNull allocates a null mark unused in the store.
func (st *Store) FreshNull() value.V { return st.rel.FreshNull() }

// Maintenance reports the configured maintenance engine.
func (st *Store) Maintenance() Maintenance { return st.opts.Maintenance }

// Stats reports the mutation counters: inserts, updates, deletes
// accepted, and mutations rejected.
func (st *Store) Stats() (inserts, updates, deletes, rejected int) {
	return st.inserts, st.updates, st.deletes, st.rejected
}

// incrementalMode reports whether mutations take the incremental path.
// The X-rules re-scan the whole instance, so ApplyXRules forces the
// recheck path to keep the engines behaviorally identical.
func (st *Store) incrementalMode() bool {
	return st.opts.Maintenance == MaintenanceIncremental && !st.opts.ApplyXRules
}

// resolve brings a tentative instance to the store's normal form: one
// extended chase, plus — when configured — the Section 4 X-side
// substitution rules iterated with re-chases. On consistency it returns
// the resolved instance; on contradiction it returns the rejecting
// chase result as the witness. It never touches store state, so the
// rejection-attribution scan (txn.go: offendingOp) shares it and
// decides prefixes under the store's configured semantics.
func (st *Store) resolve(tentative *relation.Relation) (*relation.Relation, *chase.Result, error) {
	res, err := chase.Run(tentative, st.fds, chase.Options{})
	if err != nil {
		return nil, nil, err
	}
	if !res.Consistent {
		return nil, res, nil
	}
	cur := res.Relation
	if st.opts.ApplyXRules {
		for {
			next, subs, err := chase.ApplyXSubstitutions(cur, st.fds)
			if err != nil {
				return nil, nil, err
			}
			if len(subs) == 0 {
				break
			}
			// X-substitutions may enable further NS-rules.
			res2, err := chase.Run(next, st.fds, chase.Options{})
			if err != nil {
				return nil, nil, err
			}
			if !res2.Consistent {
				return nil, res2, nil
			}
			cur = res2.Relation
		}
	}
	return cur, nil, nil
}

// perOpNames spells the operation an InconsistencyError from a per-op
// mutation names.
var perOpNames = [...]string{txnInsert: "insert", txnUpdate: "update", txnDelete: "delete"}

// commitOne runs a per-op mutation as what it is — a one-op write-set:
// the same gate, prepare and apply as Txn.Commit, logged as a per-op
// record. Per-op callers see the rejection itself rather than the
// write-set wrapper: the bare structural error, or the
// *InconsistencyError naming the operation.
func (st *Store) commitOne(op txnOp) error {
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
// drift between them.
func validateUpdate(s *schema.Scheme, n, ti int, a schema.Attr, v value.V) error {
	if ti < 0 || ti >= n {
		return fmt.Errorf("store: update of tuple %d out of range", ti)
	}
	if int(a) < 0 || int(a) >= s.Arity() {
		return fmt.Errorf("store: update of attribute %d out of range", a)
	}
	if v.IsNothing() {
		return fmt.Errorf("store: the inconsistent element cannot be stored")
	}
	if v.IsConst() && !s.Domain(a).Contains(v.Const()) {
		return fmt.Errorf("store: value %q outside domain %q", v.Const(), s.Domain(a).Name)
	}
	return nil
}

// Delete removes a tuple by swap-and-pop: the last tuple moves into the
// hole, under either maintenance engine. Deletion cannot introduce a
// violation (rules need pairs, and no surviving pair changed).
func (st *Store) Delete(ti int) error {
	return st.commitOne(txnOp{kind: txnDelete, ti: ti})
}

// CheckStrong reports whether the stored instance strongly satisfies the
// dependencies (TEST-FDs under the strong convention, Theorem 2).
func (st *Store) CheckStrong() bool {
	ok, _ := testfds.StrongSatisfied(st.rel, st.fds)
	return ok
}

// CheckWeak re-verifies weak satisfiability of the stored instance via
// TEST-FDs under the weak convention (Theorem 3) — always true by the
// store's invariant; exposed for auditing and tests.
func (st *Store) CheckWeak() bool {
	ok, _ := testfds.WeakSatisfiedMinimallyIncomplete(st.rel, st.fds)
	return ok
}

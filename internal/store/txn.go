// txn.go implements the store's one write path: a Txn stages a
// write-set of inserts, updates, and deletes — with savepoints — and
// Commit applies the whole set as ONE multi-row delta, so a k-op batch
// pays roughly one incremental constraint check instead of k. The
// per-op mutations (store.go) are one-op write-sets through the same
// prepare and apply.
//
// # Semantics
//
// A transaction is atomic and checks constraints on the *final* state
// only (deferred checking, like SQL's DEFERRABLE INITIALLY DEFERRED):
// the staged ops are applied structurally in order, then one
// re-verification — one NS-propagation worklist seeded from all staged
// rows, sweeping the partition groups they touch (or, in the recheck
// oracle, one chase of the applied write-set) — decides the whole
// commit. A write-set whose intermediate states would be rejected op
// by op can therefore commit if its final state is consistent (insert a
// doomed tuple, then delete it), and conversely a commit is rejected
// as a unit: either every staged op takes effect or none does.
//
// Staged tuple indices address the transaction's own evolving state:
// the committed instance as of Begin, plus the effects of earlier
// staged ops applied in order (inserts append at Len, updates overwrite
// in place, deletes swap the last row into the hole — the engine and
// its oracle both apply staged deletes by swap-and-pop, so index
// evolution inside a commit is the same under both).
//
// Marked nulls are transaction-scoped: an explicit ⊥k ("-k") staged in
// several rows of one write-set denotes the SAME unknown across all of
// them (and ties into the committed instance's live ⊥k, if any),
// because the whole set reaches the constraint check together. This is
// stronger than op-by-op insertion, where a mark whose class was
// substituted away mid-sequence reads as a fresh unknown when reused.
//
// # Isolation
//
// Commit validates that no mutation was *accepted* since Begin (the
// store's monotone accepted-op count — rejected-and-rolled-back
// mutations leave the committed state untouched and do not conflict);
// a concurrent or interleaved writer that committed first aborts this
// transaction with ErrTxnConflict. The locking is the store's own:
//
//   - Begin reads the accepted-op count and row count under the read lock —
//     concurrent with other readers and other Begins. It takes no view:
//     a reader that wants the begin-time state takes View right after
//     Begin, and if a commit slips in between, this transaction's Commit
//     fails with ErrTxnConflict, so no staged index is ever applied to a
//     state it was not computed against;
//   - staging (Insert/InsertRow/Update/Delete/Save/RollbackTo) is pure
//     bookkeeping on transaction-local state and takes NO lock — any
//     number of transactions stage in parallel while readers read;
//   - Commit takes the write lock for the single batched apply-and-
//     check; writers therefore serialize at commit only.
//
// With readers on copy-on-write views, this is first-committer-wins
// snapshot isolation. The conflict check is deliberately coarse (any
// committed write conflicts): under a shared FD set the whole instance
// is one constraint scope, so any concurrent write can change the chase
// outcome of this write-set.
package store

import (
	"errors"
	"fmt"

	"fdnull/internal/chase"
	"fdnull/internal/relation"
	"fdnull/internal/schema"
	"fdnull/internal/value"
)

// Transaction-lifecycle sentinels; match with errors.Is.
var (
	// ErrTxnConflict aborts a Commit when the store changed after Begin:
	// another transaction (or a direct per-op mutation) committed first.
	// The transaction is finished; retry by beginning a new one.
	ErrTxnConflict = errors.New("store: transaction conflict: the store changed since Begin")
	// ErrTxnFinished reports a staged op or Commit on a transaction that
	// was already committed or rolled back.
	ErrTxnFinished = errors.New("store: transaction already committed or rolled back")
)

// TxnError reports a rejected Commit. It identifies the offending
// staged op and wraps the underlying cause — an *InconsistencyError
// carrying the chase witness for constraint rejections (so
// errors.Is(err, ErrInconsistent) matches), or the structural error of
// the op that failed to apply (arity, domain, duplicate, range).
type TxnError struct {
	// Op is the index of the offending staged op (0-based, in staging
	// order after savepoint rollbacks). For a constraint rejection it is
	// the earliest op whose prefix write-set already admits no
	// completion; for a structural error, the op that failed to apply.
	Op int
	// OpDesc renders the offending op for error messages.
	OpDesc string
	// Err is the underlying rejection.
	Err error
}

func (e *TxnError) Error() string {
	return fmt.Sprintf("store: commit rejected at staged op %d (%s): %v", e.Op, e.OpDesc, e.Err)
}

// Unwrap exposes the underlying rejection to errors.Is / errors.As.
func (e *TxnError) Unwrap() error { return e.Err }

// Savepoint marks a position in a transaction's staged write-set; see
// Txn.Save and Txn.RollbackTo.
type Savepoint int

type txnOpKind uint8

const (
	txnInsert txnOpKind = iota
	txnUpdate
	txnDelete
)

// txnOp is one staged operation. Ops are pure records: staging touches
// no store state, so a transaction stages without any lock.
type txnOp struct {
	kind txnOpKind
	t    relation.Tuple // insert: explicit tuple (nil when row is set)
	row  []string       // insert: raw cells, parsed at commit (fresh nulls draw from the committed allocator)
	ti   int            // update/delete target
	a    schema.Attr    // update attribute
	v    value.V        // update value
}

func (op txnOp) describe(s *schema.Scheme) string {
	switch op.kind {
	case txnInsert:
		if op.t != nil {
			return "insert " + op.t.String()
		}
		return fmt.Sprintf("insert row %v", op.row)
	case txnUpdate:
		// Rendered for structural errors too, so the attribute may be the
		// very thing that is out of range.
		attr := fmt.Sprintf("attribute %d", op.a)
		if int(op.a) >= 0 && int(op.a) < s.Arity() {
			attr = s.AttrName(op.a)
		}
		return fmt.Sprintf("update t%d %s := %s", op.ti, attr, op.v)
	default:
		return fmt.Sprintf("delete t%d", op.ti)
	}
}

// Txn is a staged write-set against a Store. It is created by Begin,
// mutated by the staging methods, and finished by exactly one Commit or
// Rollback. One Txn must not be shared between goroutines; Isolation
// above documents how it locks the store.
type Txn struct {
	st           *Store
	baseAccepted uint64
	baseLen      int // committed row count at Begin
	length       int // base rows + staged net effect, for eager range checks
	ops          []txnOp
	done         bool
}

// Begin starts a transaction. The staged write-set is applied — and
// checked, once — by Commit; until then the store is unchanged and
// reads see the committed state. Several transactions may be open
// against one store; the first to commit wins and the rest abort with
// ErrTxnConflict. Begin reads its base under the read lock.
func (st *Store) Begin() *Txn {
	st.mu.RLock()
	defer st.mu.RUnlock()
	n := st.rel.Len()
	return &Txn{st: st, baseAccepted: st.acceptedOps(), baseLen: n, length: n}
}

// acceptedOps counts the committed state changes. The transaction
// conflict check compares it instead of the relation's low-level
// version counter, which also advances on rejected-and-rolled-back
// mutations that leave the committed state untouched.
func (st *Store) acceptedOps() uint64 {
	return uint64(st.inserts) + uint64(st.updates) + uint64(st.deletes)
}

// Pending returns the number of staged ops.
func (tx *Txn) Pending() int { return len(tx.ops) }

// Len returns the row count the instance will have after Commit: the
// base instance plus the staged net effect.
func (tx *Txn) Len() int { return tx.length }

// Insert stages a tuple insert. Arity and domains are validated
// eagerly; duplicate detection happens at commit, against the state the
// earlier staged ops produce.
func (tx *Txn) Insert(t relation.Tuple) error {
	if tx.done {
		return ErrTxnFinished
	}
	// Scheme-only validation: staging must not touch the relation, which
	// a concurrent commit may be swapping out under the write lock.
	if err := relation.ValidateTuple(tx.st.scheme, t); err != nil {
		return err
	}
	tx.ops = append(tx.ops, txnOp{kind: txnInsert, t: t.Clone()})
	tx.length++
	return nil
}

// InsertRow stages an insert of a row of cell strings ("-" fresh null,
// "-k" marked null, constants otherwise — see Relation.ParseRow). The
// cells are parsed at commit time so fresh nulls draw their marks from
// the committed allocator in staging order.
func (tx *Txn) InsertRow(cells ...string) error {
	if tx.done {
		return ErrTxnFinished
	}
	if len(cells) != tx.st.scheme.Arity() {
		return fmt.Errorf("relation %s: tuple arity %d, scheme arity %d",
			tx.st.scheme.Name(), len(cells), tx.st.scheme.Arity())
	}
	tx.ops = append(tx.ops, txnOp{kind: txnInsert, row: append([]string(nil), cells...)})
	tx.length++
	return nil
}

// Update stages a cell overwrite. The index addresses the transaction's
// evolving state (base rows first, staged inserts at Len and up).
func (tx *Txn) Update(ti int, a schema.Attr, v value.V) error {
	if tx.done {
		return ErrTxnFinished
	}
	if _, err := validateUpdate(tx.st.scheme, tx.length, ti, a, v); err != nil {
		return err
	}
	tx.ops = append(tx.ops, txnOp{kind: txnUpdate, ti: ti, a: a, v: v})
	return nil
}

// Delete stages a tuple delete. Both engines apply staged deletes by
// swap-and-pop (the last row moves into the hole), so later staged
// indices evolve identically under either maintenance engine.
func (tx *Txn) Delete(ti int) error {
	if tx.done {
		return ErrTxnFinished
	}
	if ti < 0 || ti >= tx.length {
		return fmt.Errorf("store: delete of tuple %d out of range", ti)
	}
	tx.ops = append(tx.ops, txnOp{kind: txnDelete, ti: ti})
	tx.length--
	return nil
}

// Save returns a savepoint marking the current end of the staged
// write-set. RollbackTo discards everything staged after it.
func (tx *Txn) Save() Savepoint { return Savepoint(len(tx.ops)) }

// RollbackTo discards the ops staged after sp, which must have been
// returned by Save on this transaction and not invalidated by an
// earlier RollbackTo. The transaction stays open.
func (tx *Txn) RollbackTo(sp Savepoint) error {
	if tx.done {
		return ErrTxnFinished
	}
	if sp < 0 || int(sp) > len(tx.ops) {
		return fmt.Errorf("store: savepoint %d out of range (0..%d)", sp, len(tx.ops))
	}
	tx.ops = tx.ops[:sp]
	// Recompute the staged net length from the surviving ops.
	tx.length = tx.baseLen
	for _, op := range tx.ops {
		switch op.kind {
		case txnInsert:
			tx.length++
		case txnDelete:
			tx.length--
		}
	}
	return nil
}

// Rollback discards the transaction without touching the store.
func (tx *Txn) Rollback() {
	tx.done = true
	tx.ops = nil
}

// Commit applies the staged write-set as one multi-row delta and
// re-establishes minimal incompleteness with a single constraint check.
// On success every staged op took effect; on error none did. The error
// is ErrTxnConflict when the store changed since Begin, ErrTxnFinished
// on a second finish, or a *TxnError identifying the offending staged
// op — wrap-matching ErrInconsistent (with the chase witness available
// via errors.As on *InconsistencyError) for constraint rejections. It
// takes the write lock.
func (tx *Txn) Commit() error {
	if tx.done {
		return ErrTxnFinished
	}
	tx.done = true
	st := tx.st
	if len(tx.ops) == 0 {
		return nil // an empty write-set applies nothing and conflicts with nothing
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if err := st.wal.gate(); err != nil {
		return err
	}
	if st.acceptedOps() != tx.baseAccepted {
		return ErrTxnConflict
	}
	p, err := st.prepareTxn(tx.ops)
	if err != nil {
		return err
	}
	p.apply()
	return st.wal.logRecord(recTxn, p.preMark, tx.ops)
}

// ---- two-phase decomposition (the sharded 2PC building block) ----

// preparedTxn is a write-set that passed validation and constraint
// checking but whose outcome is still undecided: exactly one of apply
// or discard must follow, under the same exclusion that covered
// prepareTxn (nothing may mutate the store in between). Txn.Commit is
// prepare-then-apply on one store; the sharded coordinator prepares on
// every touched shard first and only then applies (or discards) on all
// of them, so no shard ever exposes a half-committed cross-shard set.
type preparedTxn struct {
	st      *Store
	ops     []txnOp
	preMark int    // allocator watermark before prepare, for the log record
	apply   func() // finalize: adopt the resolved state, bump counters
	discard func() // roll every structural effect back; no-op when prepare staged on a clone
}

// prepareTxn runs the store's whole commit pipeline —
// structural application, then NS-propagation or chase — stopping just
// short of the point of no return. It is total over ops: every
// structural defect (arity, domain, duplicate, range, a stored
// `nothing`) is an error, never a panic, because the per-op mutations
// enter here without a staging step. A non-nil error means the
// write-set is rejected and the store is already back to its
// pre-prepare state (rejections roll back internally); constraint
// rejections bump the rejected counter on this store only, since only
// the rejecting shard refused.
func (st *Store) prepareTxn(ops []txnOp) (*preparedTxn, error) {
	if st.recheck {
		return st.prepareTxnRecheck(ops)
	}
	return st.prepareTxnIncremental(ops)
}

// ---- structural application (shared by both engines) ----

// appliedTxnOp describes the structural effect of one applied op: what
// the incremental committer maintains its mark-occurrence index and seed
// set from, and — logged in order — what it undoes (incremental.go).
type appliedTxnOp struct {
	kind    txnOpKind
	row     int            // first inserted row / updated row / delete slot
	a       schema.Attr    // update: the overwritten attribute
	old     value.V        // update: the overwritten value
	moved   int            // delete: previous index of the row swapped into the slot, or -1
	deleted relation.Tuple // delete: the removed tuple
}

// applyTxnOp applies one staged op to r through the delta mutators —
// the same code path for both maintenance engines, so structural errors
// (parse, arity, domain, duplicate, range) and index evolution are
// engine-independent. Constraint checking is the caller's business.
func applyTxnOp(s *schema.Scheme, r *relation.Relation, op txnOp) (appliedTxnOp, error) {
	switch op.kind {
	case txnInsert:
		t := op.t
		if t == nil {
			var err error
			t, err = r.ParseRow(op.row...)
			if err != nil {
				return appliedTxnOp{}, err
			}
		}
		i, err := r.InsertDelta(t)
		if err != nil {
			return appliedTxnOp{}, err
		}
		return appliedTxnOp{kind: txnInsert, row: i, moved: -1}, nil
	case txnUpdate:
		v, err := validateUpdate(s, r.Len(), op.ti, op.a, op.v)
		if err != nil {
			return appliedTxnOp{}, err
		}
		old := r.Tuple(op.ti)[op.a]
		r.SetCellDelta(op.ti, op.a, v)
		// An explicit marked null written from above the allocator bumps
		// it immediately — a later staged InsertRow's "-" cell parses
		// from this same allocator, and handing it the update's mark
		// would silently alias two unrelated unknowns into one class.
		if op.v.IsNull() && op.v.Mark() >= r.NextMark() {
			r.SetNextMark(op.v.Mark() + 1)
		}
		return appliedTxnOp{kind: txnUpdate, row: op.ti, a: op.a, moved: -1, old: old}, nil
	default:
		if op.ti < 0 || op.ti >= r.Len() {
			return appliedTxnOp{}, fmt.Errorf("store: delete of tuple %d out of range", op.ti)
		}
		del := r.Tuple(op.ti)
		moved := r.DeleteDelta(op.ti)
		return appliedTxnOp{kind: txnDelete, row: op.ti, moved: moved, deleted: del}, nil
	}
}

// ---- incremental commit: one batch delta, one propagation ----

// prepareTxnIncremental applies the write-set through the delta
// mutators (consecutive inserts via the relation's multi-row batch),
// then pays ONE constraint check for the whole set: one NS-propagation
// seeded from every staged row, whose group sweeps both find the
// clashes and make the forced substitutions. Rejections roll back and
// delegate to the recheck preparer, the per-commit oracle, so the error
// — witness, offending-op attribution, counters — is identical between
// engines. The store carries the settled state in place after a
// successful prepare (covered by the caller's exclusion); apply only
// finalizes the mutation counters, and discard restores the pre-prepare
// state through the same undo log the rejection path uses (incremental.go).
func (st *Store) prepareTxnIncremental(ops []txnOp) (*preparedTxn, error) {
	st.ensureMarks()
	savedMark := st.rel.NextMark()
	sc := &st.prop // the store's commit scratch (incremental.go)
	if sc.seeds == nil {
		sc.st, sc.seeds, sc.nextSet, sc.done = st, map[int]bool{}, map[int]bool{}, map[int]bool{}
	}
	clear(sc.seeds)
	clear(sc.log) // lets go of the rows the last commit's log held
	seeds, und := sc.seeds, sc.log[:0]
	defer func() { sc.log = und }()
	var counts [3]int

	rollbackAll := func() {
		st.undo(und)
		st.rel.SetNextMark(savedMark)
	}
	structuralFail := func(k int, err error) (*preparedTxn, error) {
		rollbackAll()
		return nil, &TxnError{Op: k, OpDesc: ops[k].describe(st.scheme), Err: err}
	}
	toOracle := func() (*preparedTxn, error) {
		rollbackAll()
		return st.prepareTxnRecheck(ops)
	}

	for k := 0; k < len(ops); k++ {
		if ops[k].kind == txnInsert {
			// Batch the maximal run of consecutive inserts through the
			// relation's multi-row delta: one version bump, one cache
			// sweep, one identity probe per row.
			run := k
			for run < len(ops) && ops[run].kind == txnInsert {
				run++
			}
			ts := make([]relation.Tuple, 0, run-k)
			for p := k; p < run; p++ {
				t := ops[p].t
				if t == nil {
					var err error
					t, err = st.rel.ParseRow(ops[p].row...)
					if err != nil {
						return structuralFail(p, err)
					}
				}
				// t is unvalidated here (InsertDeltaBatch checks arity and
				// domains below), so only range over it.
				for _, v := range t {
					if v.IsNothing() {
						// A tuple carrying the inconsistent element can never
						// be completed; the delta machinery does not analyze
						// nothing sidecars, so the oracle derives the identical
						// rejection.
						return toOracle()
					}
					// Keep the allocator's noteMark effect in staging order:
					// a later "-" cell must parse to a mark above any explicit
					// "-k" an earlier op of this run carried, exactly as the
					// oracle's op-by-op application allocates.
					if v.IsNull() && v.Mark() >= st.rel.NextMark() {
						st.rel.SetNextMark(v.Mark() + 1)
					}
				}
				ts = append(ts, t)
			}
			first, bad, err := st.rel.InsertDeltaBatch(ts)
			if err != nil {
				return structuralFail(k+bad, err)
			}
			und = append(und, appliedTxnOp{kind: txnInsert, row: first})
			for i := first; i < first+len(ts); i++ {
				eachNull(i, st.rel.Tuple(i), st.addMarkRef)
				seeds[i] = true
			}
			counts[txnInsert] += len(ts)
			k = run - 1
			continue
		}
		ap, err := applyTxnOp(st.scheme, st.rel, ops[k])
		if err != nil {
			return structuralFail(k, err)
		}
		counts[ap.kind]++
		und = append(und, ap)
		switch ap.kind {
		case txnUpdate:
			st.retargetMarkRef(cellRef{ap.row, ap.a}, ap.old, ops[k].v)
			seeds[ap.row] = true
		case txnDelete:
			eachNull(ap.row, ap.deleted, st.dropMarkRef)
			delete(seeds, ap.row)
			if ap.moved >= 0 {
				st.renumberMarkRefs(st.rel.Tuple(ap.row), ap.moved, ap.row)
				if seeds[ap.moved] {
					delete(seeds, ap.moved)
					seeds[ap.row] = true
				}
			}
		}
	}

	if len(seeds) > 0 && !st.settleSeeds(&und) {
		return toOracle()
	}
	// Explicit marks staged by updates already advanced the allocator at
	// apply time (applyTxnOp), identically under both engines, so there
	// is no post-propagation bump to reconcile here.
	return &preparedTxn{
		st:      st,
		ops:     ops,
		preMark: savedMark,
		apply: func() {
			st.inserts += counts[txnInsert]
			st.updates += counts[txnUpdate]
			st.deletes += counts[txnDelete]
		},
		discard: rollbackAll,
	}, nil
}

// ---- recheck commit: one chase per commit (the oracle) ----

// prepareTxnRecheck clones the instance, applies the write-set
// structurally (same delta mutators as the incremental engine, so
// errors and index evolution agree), and runs ONE extended chase over
// the result — this is the "one chase per commit" oracle the
// incremental preparer is differentially tested against and delegates
// rejections to. On inconsistency the error attributes the earliest
// staged op whose prefix already admits no completion and carries the
// full commit's chase witness. The store itself is untouched until
// apply adopts the resolved clone, so discard has nothing to undo.
func (st *Store) prepareTxnRecheck(ops []txnOp) (*preparedTxn, error) {
	preMark := st.rel.NextMark()
	tentative := st.rel.Clone()
	var counts [3]int
	for k := range ops {
		if _, err := applyTxnOp(st.scheme, tentative, ops[k]); err != nil {
			return nil, &TxnError{Op: k, OpDesc: ops[k].describe(st.scheme), Err: err}
		}
		counts[ops[k].kind]++
	}
	res, err := chase.Run(tentative, st.fds, chase.Options{})
	if err != nil {
		return nil, err
	}
	if !res.Consistent {
		st.rejected++
		k := st.offendingOp(ops)
		return nil, &TxnError{Op: k, OpDesc: ops[k].describe(st.scheme),
			Err: &InconsistencyError{Op: "commit", Chase: res}}
	}
	cur := res.Relation
	// The chase rebuilds its result relation, resetting the fresh-mark
	// allocator to (max surviving mark)+1 and the mutation counter to
	// zero. Restore monotonicity of both: a mark handed out by FreshNull
	// (possibly not yet stored, or held by another writer) must never be recycled and silently aliased with
	// an unrelated unknown, and readers (and snapshot-isolated
	// transactions) detect change by "version moved".
	if nm := tentative.NextMark(); nm > cur.NextMark() {
		cur.SetNextMark(nm)
	}
	cur.BumpVersion(st.rel.Version() + 1)
	return &preparedTxn{
		st:      st,
		ops:     ops,
		preMark: preMark,
		apply: func() {
			st.rel = cur
			st.marks = nil // the mark index described the old instance
			st.inserts += counts[txnInsert]
			st.updates += counts[txnUpdate]
			st.deletes += counts[txnDelete]
		},
		discard: func() {},
	}, nil
}

// offendingOp attributes a rejected commit to the earliest staged op
// whose prefix write-set is already unsatisfiable (its extended chase
// produces nothing).
// Prefix consistency is not monotone (a later delete can remove a
// conflict), so the scan is linear; it only runs on the rejection
// path, after the full write-set was found inconsistent — the final
// prefix is the whole set, so an offender always exists.
func (st *Store) offendingOp(ops []txnOp) int {
	for k := 0; k < len(ops)-1; k++ {
		if st.rejects(ops[:k+1]) {
			return k
		}
	}
	return len(ops) - 1
}

// rejects reports whether ops, applied to a clone of the committed
// instance, admit no completion. It never touches store state; the
// sharded attribution scan (shard.go) runs it per touched shard.
func (st *Store) rejects(ops []txnOp) bool {
	tent := st.rel.Clone()
	for _, op := range ops {
		if _, err := applyTxnOp(st.scheme, tent, op); err != nil {
			// The full write-set applied structurally, so a prefix of it
			// cannot fail; defensive only.
			return false
		}
	}
	res, err := chase.Run(tent, st.fds, chase.Options{})
	return err == nil && !res.Consistent
}

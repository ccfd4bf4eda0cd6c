// concurrent.go wraps the Store in a reader/writer-locked facade so one
// guarded instance can serve many goroutines: writers serialize behind
// the write lock, and readers share the read lock. A read is one of two
// kinds. Query, CheckWeak, CheckStrong and Len evaluate on the live
// relation and hold the read lock for their own length — a planned
// selection is a few index probes, and the indexes it probes are the
// ones the writers keep fresh. Snapshot and BeginTxn take an O(1)
// copy-on-write view under the read lock and then work lock-free on
// immutable data — the snapshot-then-analyze pattern for anything long
// (discovery, reports, a stable cut across several reads), which a
// writer should not wait for.
//
// The locked store is the unit of isolation AND of durability:
// OpenDurable (recovery.go) returns a *Concurrent whose inner store
// write-ahead logs every accepted commit under the write lock, and Err /
// Sync / Checkpoint / Close / Health / Recover (recovery.go, faults.go)
// are its durability surface — no-ops on an in-memory store.
package store

import (
	"sync"

	"fdnull/internal/fd"
	"fdnull/internal/relation"
	"fdnull/internal/schema"
	"fdnull/internal/value"
)

// Concurrent is a Store safe for concurrent use. Mutations take the
// write lock; Snapshot and the other read accessors take the read lock,
// so any number of readers proceed in parallel with each other. On a
// durable handle a mutation is refused, with the instance unchanged,
// once the handle is degraded (ErrDegraded) or closed
// (ErrDurableClosed).
type Concurrent struct {
	mu sync.RWMutex
	st *Store
}

// NewConcurrent creates an empty concurrent store over s guarded by fds.
func NewConcurrent(s *schema.Scheme, fds []fd.FD) *Concurrent {
	return &Concurrent{st: New(s, fds, Options{})}
}

// Guard wraps an existing store. The caller must not use st directly
// afterwards.
func Guard(st *Store) *Concurrent { return &Concurrent{st: st} }

// Insert adds a tuple under the write lock.
func (c *Concurrent) Insert(t relation.Tuple) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.st.Insert(t)
}

// InsertRow parses and inserts a row under the write lock.
func (c *Concurrent) InsertRow(cells ...string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.st.InsertRow(cells...)
}

// Update overwrites one cell under the write lock.
func (c *Concurrent) Update(ti int, a schema.Attr, v value.V) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.st.Update(ti, a, v)
}

// Delete removes a tuple under the write lock.
func (c *Concurrent) Delete(ti int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.st.Delete(ti)
}

// FreshNull allocates a null mark; it advances the allocator, so it
// takes the write lock.
func (c *Concurrent) FreshNull() value.V {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.st.FreshNull()
}

// Snapshot returns an O(1) copy-on-write snapshot of the instance. The
// returned view is immutable and safe to read without any lock; writers
// pay for the rows they later touch, never the readers.
func (c *Concurrent) Snapshot() relation.View {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.st.View()
}

// Len returns the number of stored tuples.
func (c *Concurrent) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.st.Len()
}

// NextMark returns the fresh-mark allocator watermark (Store.NextMark).
func (c *Concurrent) NextMark() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.st.NextMark()
}

// Version returns the monotone mutation counter.
func (c *Concurrent) Version() uint64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.st.Version()
}

// Stats reports the mutation counters.
func (c *Concurrent) Stats() (inserts, updates, deletes, rejected int) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.st.Stats()
}

// Scheme returns the store's scheme.
func (c *Concurrent) Scheme() *schema.Scheme { return c.st.Scheme() }

// FDs returns the guarding dependencies.
func (c *Concurrent) FDs() []fd.FD { return c.st.FDs() }

// CheckWeak re-verifies weak satisfiability under the read lock.
func (c *Concurrent) CheckWeak() bool {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.st.CheckWeak()
}

// CheckStrong checks strong satisfaction under the read lock.
func (c *Concurrent) CheckStrong() bool {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.st.CheckStrong()
}

// ---- transactions: snapshot-isolated batched writes ----

// ConcurrentTxn is a transaction against the concurrent facade. It
// gives snapshot isolation with first-committer-wins conflict handling:
//
//   - Begin captures an O(1) copy-on-write snapshot (Snapshot) and the
//     store version, under the read lock — concurrent with other
//     readers and other Begins;
//   - staging (Insert/InsertRow/Update/Delete/Save/RollbackTo) is pure
//     bookkeeping on transaction-local state and takes NO lock — any
//     number of transactions stage in parallel while readers read;
//   - Commit takes the write lock for the single batched apply-and-
//     check; writers therefore serialize at commit only. A transaction
//     whose base version was overtaken aborts with ErrTxnConflict —
//     retry against a fresh BeginTxn.
//
// One ConcurrentTxn must not be shared between goroutines; its reads
// (Snapshot) are safe anywhere, like any View.
type ConcurrentTxn struct {
	c    *Concurrent
	tx   *Txn
	snap relation.View
}

// BeginTxn starts a snapshot-isolated transaction: the returned
// transaction stages a write-set lock-free and applies it atomically —
// one batched constraint check — when Commit takes the write lock.
func (c *Concurrent) BeginTxn() *ConcurrentTxn {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return &ConcurrentTxn{c: c, tx: c.st.Begin(), snap: c.st.View()}
}

// Snapshot returns the transaction's begin-time snapshot: the committed
// state this transaction's write-set was staged against. Reading it
// takes no lock.
func (t *ConcurrentTxn) Snapshot() relation.View { return t.snap }

// Insert stages a tuple insert (lock-free).
func (t *ConcurrentTxn) Insert(tup relation.Tuple) error { return t.tx.Insert(tup) }

// InsertRow stages a row insert (lock-free); cells parse at commit.
func (t *ConcurrentTxn) InsertRow(cells ...string) error { return t.tx.InsertRow(cells...) }

// Update stages a cell overwrite (lock-free). Indices address the
// begin-time snapshot plus earlier staged ops, exactly as for Txn.
func (t *ConcurrentTxn) Update(ti int, a schema.Attr, v value.V) error {
	return t.tx.Update(ti, a, v)
}

// Delete stages a tuple delete (lock-free).
func (t *ConcurrentTxn) Delete(ti int) error { return t.tx.Delete(ti) }

// Save marks a savepoint in the staged write-set.
func (t *ConcurrentTxn) Save() Savepoint { return t.tx.Save() }

// RollbackTo discards the ops staged after sp.
func (t *ConcurrentTxn) RollbackTo(sp Savepoint) error { return t.tx.RollbackTo(sp) }

// Rollback discards the transaction without taking any lock.
func (t *ConcurrentTxn) Rollback() { t.tx.Rollback() }

// Len returns the row count the instance will have after Commit.
func (t *ConcurrentTxn) Len() int { return t.tx.Len() }

// Commit applies the staged write-set under the write lock. It returns
// ErrTxnConflict when another writer committed after this transaction's
// Begin (first committer wins; retry with a fresh BeginTxn), or the
// Txn.Commit rejection otherwise.
func (t *ConcurrentTxn) Commit() error {
	t.c.mu.Lock()
	defer t.c.mu.Unlock()
	return t.tx.Commit()
}

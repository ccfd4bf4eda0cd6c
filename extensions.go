package fdnull

import (
	"io"

	"fdnull/internal/chase"
	"fdnull/internal/discover"
	"fdnull/internal/fd"
	"fdnull/internal/query"
	"fdnull/internal/relation"
	"fdnull/internal/schema"
	"fdnull/internal/store"
	"fdnull/internal/workload"
)

// This file re-exports the two extension layers the paper sketches beyond
// its core results: three-valued query evaluation under the
// least-extension rule (Section 2), and modification operations guarded
// by weak satisfiability (the concluding remarks' "internal vs external
// acquisition" programme), plus the Section 4 X-side substitution rules.

// ---- Queries (Section 2 semantics) ----

// Pred is a three-valued selection predicate.
type Pred = query.Pred

// The predicate atoms and connectives.
type (
	// Eq is the atom attr = const.
	Eq = query.Eq
	// In is the atom attr ∈ values — the paper's "married or single"
	// example evaluates to true on a null through this atom.
	In = query.In
	// EqAttr is the atom attr1 = attr2; same-marked nulls compare true.
	EqAttr = query.EqAttr
	// NotPred negates a predicate (strong Kleene).
	NotPred = query.Not
	// AndPred conjoins predicates (strong Kleene).
	AndPred = query.And
	// OrPred disjoins predicates (strong Kleene).
	OrPred = query.Or
)

// SelectResult partitions a selection into certain and possible answers
// (both index lists ascending, engine-independent).
type SelectResult = query.Result

// QuerySource is the read surface selections evaluate over; both
// *Relation and RelationView satisfy it, so snapshots query with zero
// materialization.
type QuerySource = query.Source

// QueryOptions configure SelectAll/SelectExplain; the zero value is the
// planner with GOMAXPROCS workers.
type QueryOptions = query.Options

// Select evaluates a predicate three-valuedly on every tuple: Sure lists
// tuples in the answer under every completion, Maybe under some. Tuples
// admitting no completion (a `!` cell, or a mark spanning domains with
// empty intersection) are in neither list — no predicate holds on them.
// It runs the planner, which compiles an algebraic plan over X-partition
// indexes — Eq/In/EqAttr probes sized before any is gathered, the
// ∧-spine's smallest gathered alone, ∨ evaluated as a deduplicated union
// of sub-plans, residual conjuncts ordered by those sizes — and degrades to the scan when the source has no indexes
// (a RelationView) or the predicate offers no plannable structure; the
// answer is the same either way.
func Select(src QuerySource, p Pred) SelectResult { return query.SelectWith(src, p, QueryOptions{}) }

// SelectAll evaluates a predicate batch over one source, fanned across a
// bounded worker pool, returning results in input order.
func SelectAll(src QuerySource, preds []Pred, opts QueryOptions) []SelectResult {
	return query.SelectAll(src, preds, opts)
}

// ParsePred parses the CLI predicate language, e.g.
// "MS in (married, single) and not D# = d2". Constants are validated
// against the attribute domains at parse time, and the keywords
// not/and/or/in are reserved.
func ParsePred(s *schema.Scheme, input string) (Pred, error) {
	return query.ParsePred(s, input)
}

// QueryExplain is the plan report of one selection: the chosen probe or
// union arms with estimated vs actual candidate counts, the residual
// evaluation order, or the full-scan reason. Format/String render it as
// the indented tree `fdquery -explain` prints.
type QueryExplain = query.Explain

// QueryExplainNode mirrors one plan operator in a QueryExplain.
type QueryExplainNode = query.ExplainNode

// SelectExplain is Select returning the plan report alongside the
// answer; the report always describes what actually ran.
func SelectExplain(src QuerySource, p Pred, opts QueryOptions) (SelectResult, *QueryExplain) {
	return query.SelectExplain(src, p, opts)
}

// Joined is the outcome of a selection over a decomposed schema: the
// recombined universal instance, the answer over it, and whether the
// null-aware pad+chase route ran instead of the classical natural join.
type Joined = query.Joined

// SelectJoined evaluates p over the natural join of the fragments of a
// lossless decomposition of universal — null-free fragments via a hash
// natural join with per-fragment predicate pushdown, fragments with
// nulls via PadToUniversal and the extended chase — without requiring
// the caller to materialize the join first. components[i] lists the
// universal attributes of fragments[i] in the fragment's column order.
func SelectJoined(universal *schema.Scheme, fds []FD, fragments []*Relation, components []AttrSet, p Pred, opts QueryOptions) (*Joined, error) {
	return query.SelectJoined(universal, fds, fragments, components, p, opts)
}

// ---- X-side substitutions (Section 4 conditions (1) and (2)) ----

// XSubstitution records one application of a Section 4 X-side rule.
type XSubstitution = chase.XSubstitution

// ApplyXSubstitutions applies the domain-dependent left-hand-side
// substitution rules once; iterate until no substitutions are returned.
func ApplyXSubstitutions(r *relation.Relation, fds []fd.FD) (*relation.Relation, []XSubstitution, error) {
	return chase.ApplyXSubstitutions(r, fds)
}

// ---- Constraint-maintaining store (modification operations) ----

// Store is a relation instance guarded by FDs under weak satisfiability:
// mutations that admit no completion are rejected with a chase witness,
// and the NS-rules substitute forced nulls after every accepted change.
// It is safe for concurrent use: writers serialize behind a write lock,
// readers share the read lock, and View hands out an O(1) copy-on-write
// snapshot that is read lock-free afterwards.
type Store = store.Store

// InconsistencyError is returned for mutations the dependencies forbid.
// It wraps ErrInconsistent, so errors.Is(err, ErrInconsistent) matches.
type InconsistencyError = store.InconsistencyError

// ErrInconsistent is the sentinel every constraint rejection matches:
// errors.Is(err, ErrInconsistent) distinguishes "the dependencies admit
// no completion" from structural errors (arity, domain, duplicate,
// range). Branch on this, never on error text.
var ErrInconsistent = store.ErrInconsistent

// The transaction lifecycle sentinels: ErrTxnConflict aborts a Commit
// whose store changed since Begin (first committer wins — retry on a
// fresh transaction); ErrTxnFinished reports use of an already
// committed or rolled-back transaction.
var (
	ErrTxnConflict = store.ErrTxnConflict
	ErrTxnFinished = store.ErrTxnFinished
)

// Txn is a staged write-set against a Store: Begin, stage
// Insert/InsertRow/Update/Delete (with Save/RollbackTo savepoints),
// then Commit applies the whole set as one multi-row delta with a
// single constraint check — or rejects it atomically with a TxnError.
// Staging takes no lock and Commit takes the store's write lock, so
// transactions on one store give first-committer-wins snapshot
// isolation.
type Txn = store.Txn

// TxnSavepoint marks a position in a transaction's staged write-set.
type TxnSavepoint = store.Savepoint

// TxnError reports a rejected transaction commit: the offending staged
// op plus the underlying cause (an *InconsistencyError carrying the
// chase witness for constraint rejections).
type TxnError = store.TxnError

// NewStore creates an empty guarded store. It maintains the invariant
// incrementally: a commit re-verifies only the partition groups it
// touches and propagates forced substitutions from the delta tuples over
// the delta-maintained X-partition indexes.
func NewStore(s *schema.Scheme, fds []fd.FD) *Store {
	return store.New(s, fds, store.Options{})
}

// StoreFromRelation builds a store over an existing instance with one
// chase (instead of n guarded inserts), rejecting instances that
// contradict the dependencies.
func StoreFromRelation(s *schema.Scheme, fds []fd.FD, r *relation.Relation) (*Store, error) {
	return store.FromRelation(s, fds, r)
}

// LoadStore reads a store persisted with Store.Save (the relio text
// format), re-chasing and rejecting inconsistent files.
func LoadStore(r io.Reader) (*Store, error) {
	return store.Load(r)
}

// RelationView is an immutable O(1) copy-on-write snapshot of a relation
// instance (Store.View).
type RelationView = relation.View

// ---- Durability ----

// DurableOptions configure OpenDurableStore: group-commit interval,
// segment rotation size, automatic checkpoint cadence, and the scheme
// and FDs that seed a fresh directory.
type DurableOptions = store.DurableOptions

// ErrWAL tags every write-ahead-log failure: a poisoned durable handle,
// a refused open (a manifest naming any maintenance but incremental,
// a corrupt fsync'd segment, a missing checkpoint), or a failed
// checkpoint.
var ErrWAL = store.ErrWAL

// ErrDurableClosed reports an operation on a closed durable handle.
var ErrDurableClosed = store.ErrDurableClosed

// ErrTransient tags WAL failures whose root cause is transient-class
// (out of space, interrupted call) — errors.Is(err, ErrTransient)
// distinguishes "retry may heal this" from a permanent disk fault.
// Transient faults on whole-rewrite units (segment creation, checkpoint
// and manifest temp files) are already retried internally with bounded
// backoff; one that still escapes was retried and kept failing.
var ErrTransient = store.ErrTransient

// ErrDegraded tags every mutation rejected because the durable handle
// is in degraded read-only mode: an unrecoverable log failure (a failed
// fsync on the active segment, say) stops mutations but keeps queries
// and snapshots serving the in-memory state. The error also wraps the
// degradation's root cause, which matches ErrWAL. Store.Health reports
// the state; Store.Recover re-establishes durability once the filesystem
// heals.
var ErrDegraded = store.ErrDegraded

// DurableHealth is a point-in-time snapshot of a store handle's
// durability state and I/O counters (mode, synced/next/checkpoint seq,
// fsync/retry/degradation counts, root cause while degraded), as
// returned by Store.Health and ShardedStore.ShardHealth.
type DurableHealth = store.Health

// OpenDurableStore opens (or creates) a durable store in dir: accepted
// commits are write-ahead logged to a segmented, checksummed log, and
// reopening the directory replays the manifest's checkpoint plus the log
// suffix and reconstructs the exact committed instance, marks and
// allocator watermark included. A torn tail (a record cut short by the
// crash) is truncated at the last valid record; corruption anywhere
// already fsync'd fails the open with ErrWAL. A fresh directory needs
// opts.Scheme and opts.FDs; a reopen ignores them, and refuses a
// manifest that names any maintenance other than incremental or X-rules
// other than false. Err, Sync, Checkpoint, Close, Health and Recover are
// the returned store's durability surface, all no-ops on an in-memory
// store, whose Health reports Mode "memory".
func OpenDurableStore(dir string, opts DurableOptions) (*Store, error) {
	return store.OpenDurable(dir, opts)
}

// ---- Sharded store ----

// ShardedStore is a hash-sharded constraint-maintained store: S
// independent Store shards routed by the constant projection on a
// shard key that must be a subset of every dependency's LHS (which
// makes the chase shard-local and the sharding sound). Single-shard
// transactions lock only their home shard; cross-shard write-sets
// commit via lightweight two-phase commit under every touched shard's
// lock, so no reader ever observes a partial cross-shard commit.
type ShardedStore = store.Sharded

// ShardedStoreOptions configure NewShardedStore / OpenShardedStore:
// the shard count and the routing key.
type ShardedStoreOptions = store.ShardedOptions

// ShardedTxn is a staged write-set against a sharded store. Updates and
// deletes are content-addressed by a committed tuple (per-shard indices
// are meaningless to facade clients).
type ShardedTxn = store.ShardedTxn

// NewShardedStore creates an empty in-memory sharded store.
func NewShardedStore(s *schema.Scheme, fds []fd.FD, opts ShardedStoreOptions) (*ShardedStore, error) {
	return store.NewSharded(s, fds, opts)
}

// OpenShardedStore opens (or creates) a durable sharded store: each
// shard write-ahead logs to its own dir/shard-NN subdirectory.
// Durability is per shard; cross-shard crash atomicity is NOT provided
// (there is no coordinator record).
func OpenShardedStore(dir string, s *schema.Scheme, fds []fd.FD, opts ShardedStoreOptions, dopts DurableOptions) (*ShardedStore, error) {
	return store.OpenShardedDurable(dir, s, fds, opts, dopts)
}

// ---- Dependency discovery ----

// DiscoverOptions bound the FD-discovery lattice search: determinant
// size cap, convention, and worker count. Candidates are answered from
// cached null-aware stripped partitions with a per-level worker pool.
type DiscoverOptions = discover.Options

// DiscoverFDs mines the minimal functional dependencies holding in an
// instance with nulls: under the strong convention the *certain*
// dependencies (holding in every completion), under the weak convention
// the dependencies consistent with the data.
func DiscoverFDs(r *relation.Relation, opts DiscoverOptions) ([]fd.FD, error) {
	return discover.Run(r, opts)
}

// DiscoverCover mines dependencies and reduces them to a minimal cover.
func DiscoverCover(r *relation.Relation, opts DiscoverOptions) ([]fd.FD, error) {
	return discover.Cover(r, opts)
}

// ---- Witnesses and adversarial fixtures ----

// CounterexampleWitness returns the two-tuple witness refuting F ⊨ g, or
// false when g is implied — the constructive completeness direction of
// Theorem 1. Materialize it with Witness.Build or Witness.BuildWithNulls.
func CounterexampleWitness(fds []fd.FD, g fd.FD, all schema.AttrSet) (fd.Witness, bool) {
	return fd.CounterexampleWitness(fds, g, all)
}

// ArmstrongRelation builds an instance over a fresh p-attribute scheme
// that satisfies a functional dependency exactly when F implies it — the
// universal adversarial fixture for FD checkers.
func ArmstrongRelation(p int, fds []fd.FD) (*schema.Scheme, *relation.Relation, error) {
	return workload.ArmstrongRelation(p, fds)
}

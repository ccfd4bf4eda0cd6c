// shard.go implements the hash-sharded store facade: S independent
// stores — each with its own lock, version counter, indexes,
// and (when opened with OpenShardedDurable) its own WAL directory — with
// relations routed by the constant projection on a shard key.
//
// # Soundness
//
// Sharding a constraint-maintained instance is only sound when the
// constraint scope never crosses shards. The facade enforces the one
// condition that guarantees it: the shard key must be a subset of EVERY
// dependency's left-hand side, and every stored tuple must be constant
// on the key. Then two tuples can interact under an NS-rule (or a
// Section 4 X-side substitution) only if they can agree on the full LHS
// — impossible across shards, whose key constants differ by
// construction (identical key projections hash to the same shard).
// Consequently the chase of the union instance is the union of the
// per-shard chases, duplicates are impossible across shards, and weak
// satisfiability of the whole equals every shard's invariant holding.
// CheckWeak audits this argument on the materialized union rather than
// assuming it; the sharded history exerciser (shard_history_test.go)
// replays randomized histories against an unsharded oracle.
//
// Marked nulls are shard-scoped: a ⊥k staged into rows of two different
// shards is accepted but denotes an independent unknown per shard
// (their congruence classes can never be merged by a chase that runs
// shard-locally). Callers that need one unknown shared across rows must
// keep those rows on one shard key.
//
// # Transactions and 2PC
//
// A ShardedTxn stages purely transaction-local ops (content-addressed
// for updates and deletes, since per-shard indices are meaningless to
// clients). Commit routes the set: a single-shard write-set takes only
// its home shard's write lock — disjoint-key commits proceed in
// parallel with no shared lock at all — while a cross-shard write-set
// runs lightweight two-phase commit over the engine's prepare/apply
// split (txn.go): write locks on every touched shard in ascending shard
// order (deadlock-free against any other committer and against
// snapshotAll), per-shard first-committer-wins validation, prepareTxn
// on every shard, and only when all prepares succeed apply on all —
// otherwise discard on all. All locks are held until the decision is
// applied everywhere, so no reader (and no snapshotAll cut) ever
// observes a half-committed cross-shard write-set. Conflict validation
// is per TOUCHED shard: a concurrent commit on a shard this write-set
// never touches does not abort it — exactly as sound as the unsharded
// rule, because the constraint scope is shard-local.
//
// Durability is per shard (OpenShardedDurable): each shard logs its
// slice of a cross-shard commit to its own WAL. There is no coordinator
// record, so a crash between the per-shard log appends of one
// cross-shard commit can surface a prefix of it after recovery — the
// documented gap between per-shard durability and cross-shard crash
// atomicity.
package store

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"fdnull/internal/fd"
	"fdnull/internal/query"
	"fdnull/internal/relation"
	"fdnull/internal/schema"
	"fdnull/internal/testfds"
	"fdnull/internal/value"
)

// ShardedOptions configure NewSharded / OpenShardedDurable.
type ShardedOptions struct {
	// Shards is the shard count S (>= 1).
	Shards int
	// Key is the routing key. It must be non-empty and a subset of every
	// dependency's LHS (see the soundness argument above); tuples must
	// be constant on it.
	Key schema.AttrSet
}

// Sharded is a hash-sharded constraint-maintained store: S independent
// Store shards plus a facade-global fresh-mark allocator and
// logical operation counters. Safe for concurrent use.
type Sharded struct {
	scheme   *schema.Scheme
	fds      []fd.FD
	key      schema.AttrSet
	keyAttrs []schema.Attr
	shards   []*Store

	// markMu guards the facade-global fresh-mark allocator. Every mark
	// enters the shards pre-allocated from here (rows are parsed at the
	// facade before routing), so the per-shard relation allocators are
	// never an allocation source and marks can never collide across
	// shards. Write-sets without any null skip this mutex entirely,
	// keeping disjoint-key constant workloads free of shared state.
	markMu   sync.Mutex
	nextMark int

	inserts  atomic.Int64
	updates  atomic.Int64
	deletes  atomic.Int64
	rejected atomic.Int64
}

// NewSharded creates an empty sharded store over s guarded by fds.
func NewSharded(s *schema.Scheme, fds []fd.FD, opts ShardedOptions) (*Sharded, error) {
	if err := validateShardedOptions(s, fds, opts); err != nil {
		return nil, err
	}
	sh := &Sharded{
		scheme:   s,
		fds:      append([]fd.FD(nil), fds...),
		key:      opts.Key,
		keyAttrs: opts.Key.Attrs(),
		shards:   make([]*Store, opts.Shards),
	}
	for i := range sh.shards {
		sh.shards[i] = New(s, fds, Options{})
	}
	sh.nextMark = sh.shards[0].NextMark()
	return sh, nil
}

// OpenShardedDurable opens (or creates) a sharded store whose shards
// each write-ahead log to their own subdirectory dir/shard-NN. dopts
// seeds fresh shards (Scheme and FDs are overridden from the sharded
// arguments); reopening recovers every shard, resumes the global
// allocator above every recovered mark, and refuses a directory whose
// tuples do not route to the shards they were recovered in — the shard
// key is stored nowhere, and opening under a different one would put
// tuples that agree on an FD's LHS on different shards, out of each
// other's constraint scope.
func OpenShardedDurable(dir string, s *schema.Scheme, fds []fd.FD, opts ShardedOptions, dopts DurableOptions) (*Sharded, error) {
	if err := validateShardedOptions(s, fds, opts); err != nil {
		return nil, err
	}
	if entries, err := newIOEnv(dopts).fs.ReadDir(dir); err == nil {
		existing := 0
		for _, e := range entries {
			if e.IsDir() && strings.HasPrefix(e.Name(), "shard-") {
				existing++
			}
		}
		if existing > 0 && existing != opts.Shards {
			return nil, fmt.Errorf("store: sharded dir %s holds %d shard directories, options ask for %d", dir, existing, opts.Shards)
		}
	} else if !errors.Is(err, os.ErrNotExist) {
		return nil, err
	}
	sh := &Sharded{
		scheme:   s,
		fds:      append([]fd.FD(nil), fds...),
		key:      opts.Key,
		keyAttrs: opts.Key.Attrs(),
		shards:   make([]*Store, 0, opts.Shards),
	}
	dopts.Scheme = s
	dopts.FDs = fds
	for i := 0; i < opts.Shards; i++ {
		c, err := OpenDurable(filepath.Join(dir, fmt.Sprintf("shard-%02d", i)), dopts)
		if err != nil {
			sh.Close() // errcheck:ok abandoning a partially opened shard set; the open error below subsumes close failures
			return nil, fmt.Errorf("store: open shard %d: %w", i, err)
		}
		sh.shards = append(sh.shards, c)
	}
	for i, c := range sh.shards {
		if nm := c.NextMark(); nm > sh.nextMark {
			sh.nextMark = nm
		}
		for _, t := range c.rel.Tuples() { // not yet shared: nothing else holds c
			if home, err := sh.ShardOf(t); err != nil || home != i {
				sh.Close() // errcheck:ok refusing the open; the routing error below subsumes close failures
				return nil, fmt.Errorf("store: sharded dir %s was not written under shard key %s: shard %d holds %s, which does not route there",
					dir, s.FormatSet(opts.Key), i, t)
			}
		}
	}
	return sh, nil
}

func validateShardedOptions(s *schema.Scheme, fds []fd.FD, opts ShardedOptions) error {
	if opts.Shards < 1 {
		return fmt.Errorf("store: sharded store needs at least 1 shard, got %d", opts.Shards)
	}
	if opts.Key.Empty() {
		return errors.New("store: sharded store needs a non-empty shard key")
	}
	if !opts.Key.SubsetOf(s.All()) {
		return fmt.Errorf("store: shard key %s outside scheme %s", s.FormatSet(opts.Key), s.Name())
	}
	for _, f := range fds {
		if !opts.Key.SubsetOf(f.X) {
			return fmt.Errorf("store: shard key %s is not a subset of the LHS of %s; cross-shard chases would be unsound",
				s.FormatSet(opts.Key), f.Format(s))
		}
	}
	return nil
}

// ---- routing ----

// ShardOf routes a tuple — reports its home shard — by the FNV-1a hash
// of its constant key projection (the X-partition group-key encoding, so
// syntactically identical projections — and only those — co-route).
func (s *Sharded) ShardOf(t relation.Tuple) (int, error) {
	i, ok := s.shardOf(t)
	if !ok {
		return 0, fmt.Errorf("store: tuple %s is not constant on the shard key %s; nulls on key attributes cannot be routed",
			t, s.scheme.FormatSet(s.key))
	}
	return i, nil
}

// shardOf is ShardOf without the error, which would put t on the heap.
func (s *Sharded) shardOf(t relation.Tuple) (int, bool) {
	k, ok := relation.ConstKeyOn(t, s.keyAttrs)
	if !ok || len(s.shards) == 1 {
		return 0, ok
	}
	h := uint32(2166136261)
	for i := 0; i < len(k); i++ {
		h ^= uint32(k[i])
		h *= 16777619
	}
	return int(h % uint32(len(s.shards))), true
}

// ---- accessors ----

// Scheme returns the shared scheme.
func (s *Sharded) Scheme() *schema.Scheme { return s.scheme }

// FDs returns a copy of the shared dependency set.
func (s *Sharded) FDs() []fd.FD { return append([]fd.FD(nil), s.fds...) }

// NumShards returns the shard count S.
func (s *Sharded) NumShards() int { return len(s.shards) }

// Shard exposes shard i's store (read access for tests and benchmarks;
// mutating a shard directly bypasses routing and the global allocator
// and voids the sharding invariants).
func (s *Sharded) Shard(i int) *Store { return s.shards[i] }

// Len returns the total tuple count across shards. Shards are read one
// at a time; Snapshot is an atomic cut.
func (s *Sharded) Len() int {
	n := 0
	for _, c := range s.shards {
		n += c.Len()
	}
	return n
}

// Version returns the sum of the shard versions — monotone, and moved
// by every accepted (or structurally attempted) mutation on any shard.
func (s *Sharded) Version() uint64 {
	var v uint64
	for _, c := range s.shards {
		v += c.Version()
	}
	return v
}

// Stats reports the facade's LOGICAL operation counters: a cross-shard
// key move counts as the one update the caller issued, not as the
// delete+insert pair it compiles to.
func (s *Sharded) Stats() (inserts, updates, deletes, rejected int) {
	return int(s.inserts.Load()), int(s.updates.Load()), int(s.deletes.Load()), int(s.rejected.Load())
}

// FreshNull allocates a fresh marked null from the facade-global
// allocator (shard relations are never an allocation source).
func (s *Sharded) FreshNull() value.V {
	s.markMu.Lock()
	defer s.markMu.Unlock()
	v := value.NewNull(s.nextMark)
	s.nextMark++
	return v
}

// NextMark exposes the global allocator watermark.
func (s *Sharded) NextMark() int {
	s.markMu.Lock()
	defer s.markMu.Unlock()
	return s.nextMark
}

// snapshotAll returns one O(1) copy-on-write snapshot per shard taken
// under ALL shard read locks (acquired in ascending shard order, the
// same global order committers lock in), so the cut is atomic: a
// cross-shard commit holds every touched write lock until fully
// applied, and therefore appears in all of these views or in none.
func (s *Sharded) snapshotAll() []relation.View {
	for _, c := range s.shards {
		c.mu.RLock()
	}
	views := make([]relation.View, len(s.shards))
	for i, c := range s.shards {
		views[i] = c.rel.View()
	}
	for _, c := range s.shards {
		c.mu.RUnlock()
	}
	return views
}

// Snapshot materializes the union instance from an atomic snapshotAll
// cut: shard 0's tuples first, then shard 1's, and so on. The union's
// allocator resumes at the global watermark.
func (s *Sharded) Snapshot() *relation.Relation {
	views := s.snapshotAll()
	out := relation.New(s.scheme)
	for _, v := range views {
		for i := 0; i < v.Len(); i++ {
			out.InsertUnchecked(v.Tuple(i).Clone()) // the view's row is not ours to hand over
		}
	}
	if nm := s.NextMark(); nm > out.NextMark() {
		out.SetNextMark(nm)
	}
	return out
}

// CheckWeak audits weak satisfiability of the MATERIALIZED UNION — not
// the conjunction of per-shard invariants — so it verifies the
// cross-shard soundness argument (no interaction spans shards) instead
// of assuming it.
func (s *Sharded) CheckWeak() bool {
	ok, _ := testfds.WeakSatisfiedMinimallyIncomplete(s.Snapshot(), s.fds)
	return ok
}

// CheckStrong runs TEST-FDs under the strong convention on the
// materialized union (an O(total) diagnostic, like the unsharded one).
func (s *Sharded) CheckStrong() bool {
	ok, _ := testfds.StrongSatisfied(s.Snapshot(), s.fds)
	return ok
}

// SelectVisit evaluates a three-valued selection on the live relations
// and hands each answer tuple to visit (sure: a certain answer; false: a
// possible one), ordered by shard, then the shard's sure answers before
// its maybe ones, each by ascending tuple index.
//
// Routing: when p's ∧-spine carries an Eq atom on every shard-key
// attribute, only the shard those constants hash to is evaluated. Sound,
// because a stored tuple is constant on the key and lives where its key
// projection hashes (ShardOf routes nothing else, cross-shard key moves
// included): a tuple of any other shard differs from the pinned constants
// on some key attribute, so that Eq atom is false on it and with it the
// conjunction — the home shard's answers are what visiting every shard
// yields, in the same order. In, Or, Not and a partly pinned key visit
// every shard.
//
// Callback contract: visit runs under the shard's read lock on the LIVE
// tuple. It must copy what it keeps (the next write overwrites the row in
// place) and must not block or call into the store: a writer waits for
// it. Shards are visited one after another, so the answer is a committed
// state of each shard, not one cut across them (Snapshot is).
//
// res is the caller's scratch (query.SelectInto): each shard's answer is
// planned and run into it, so a caller that passes the same Result to
// every read allocates nothing that grows with the answers. On return it
// holds the last visited shard's indices, which mean nothing outside the
// lock.
func (s *Sharded) SelectVisit(p query.Pred, res *query.Result, visit func(t relation.Tuple, sure bool)) {
	shards := s.shards
	if pinned := len(shards) > 1; pinned {
		var stack [16]value.V // the key tuple of a scheme of up to 16 attributes
		probe := append(relation.Tuple(stack[:0]), make(relation.Tuple, s.scheme.Arity())...)
		for _, a := range s.keyAttrs {
			c, ok := query.SpineEq(p, a)
			pinned = pinned && ok
			probe[a] = value.NewConst(c)
		}
		if pinned {
			home, _ := s.shardOf(probe) // constant on the key: routable
			shards = shards[home : home+1]
		}
	}
	for _, c := range shards {
		func() {
			c.mu.RLock()
			defer c.mu.RUnlock()
			rel := c.rel
			query.SelectInto(rel, p, query.Options{}, res)
			for _, i := range res.Sure {
				visit(rel.Tuple(i), true)
			}
			for _, i := range res.Maybe {
				visit(rel.Tuple(i), false)
			}
		}()
	}
}

// SelectTuples is SelectVisit with every answer cloned out from under
// the lock — per-shard indices mean nothing to facade clients — sure and
// maybe each ordered by shard, then by tuple index within the shard.
// The options are not read: every shard plans with the indexed engine,
// whose verdicts are the scan's. The parameter is kept only because the
// benchmark harness (bench/target.go) calls SelectTuples with it.
func (s *Sharded) SelectTuples(p query.Pred, _ query.Options) (sure, maybe []relation.Tuple) {
	var res query.Result
	s.SelectVisit(p, &res, func(t relation.Tuple, isSure bool) {
		if isSure {
			sure = append(sure, t.Clone())
		} else {
			maybe = append(maybe, t.Clone())
		}
	})
	return sure, maybe
}

// Find reports whether a syntactically identical tuple is stored (its
// home shard and in-shard index), or (-1, -1).
func (s *Sharded) Find(t relation.Tuple) (shard, index int) {
	si, err := s.ShardOf(t)
	if err != nil {
		return -1, -1
	}
	if j := s.shards[si].Find(t); j >= 0 {
		return si, j
	}
	return -1, -1
}

// ---- durability plumbing (no-ops on in-memory shards) ----

// Checkpoint checkpoints every shard.
func (s *Sharded) Checkpoint() error {
	var first error
	for i, c := range s.shards {
		if err := c.Checkpoint(); err != nil && first == nil {
			first = fmt.Errorf("shard %d: %w", i, err)
		}
	}
	return first
}

// ShardHealth reports every shard's WAL health, indexed by shard.
// Shards without a WAL (the in-memory variant) report Mode "memory"
// with zero counters.
func (s *Sharded) ShardHealth() []Health {
	out := make([]Health, len(s.shards))
	for i, c := range s.shards {
		out[i] = c.Health()
	}
	return out
}

// Close closes every shard's log (in-memory shards have nothing to
// close). The store must not be used afterwards.
func (s *Sharded) Close() error {
	var first error
	for i, c := range s.shards {
		if err := c.Close(); err != nil && first == nil {
			first = fmt.Errorf("shard %d: %w", i, err)
		}
	}
	return first
}

// ---- transactions ----

// shardedOp is one staged facade op. Updates and deletes are
// content-addressed by a syntactically identical committed tuple
// (resolved to an in-shard index under the shard's write lock at
// commit), because per-shard indices are unstable and meaningless to
// facade clients.
type shardedOp struct {
	kind  txnOpKind
	t     relation.Tuple // insert: explicit tuple (nil when row is set)
	row   []string       // insert: raw cells, parsed at commit at the facade
	match relation.Tuple // update/delete: the committed tuple to target
	a     schema.Attr    // update attribute
	v     value.V        // update value
}

func (op shardedOp) describe(s *schema.Scheme) string {
	switch op.kind {
	case txnInsert:
		if op.t != nil {
			return "insert " + op.t.String()
		}
		return fmt.Sprintf("insert row %v", op.row)
	case txnUpdate:
		return fmt.Sprintf("update %s %s := %s", op.match, s.AttrName(op.a), op.v)
	default:
		return fmt.Sprintf("delete %s", op.match)
	}
}

// mayAllocate reports whether the op can touch the global allocator: a
// staged null value, an explicit tuple with nulls, or a row whose cells
// may parse to nulls ("-" or "-k"). Write-sets where this is false for
// every op commit without ever taking the allocator mutex.
func (op shardedOp) mayAllocate() bool {
	switch op.kind {
	case txnInsert:
		if op.t != nil {
			for _, v := range op.t {
				if v.IsNull() {
					return true
				}
			}
			return false
		}
		for _, c := range op.row {
			if strings.HasPrefix(c, "-") {
				return true
			}
		}
		return false
	case txnUpdate:
		return op.v.IsNull()
	default:
		return false
	}
}

// ShardedTxn is a staged write-set against a Sharded store: staging is
// purely transaction-local (no store state is read or written until
// Commit), and Commit routes, validates, and applies the set atomically
// across every touched shard. Not safe for concurrent use by itself.
type ShardedTxn struct {
	s    *Sharded
	base []uint64 // per-shard accepted-op counts at Begin
	ops  []shardedOp
	done bool
}

// BeginTxn starts a transaction. The begin-time accepted-op counts of
// every shard are the conflict baselines: Commit aborts with
// ErrTxnConflict if any TOUCHED shard accepted a commit in between.
func (s *Sharded) BeginTxn() *ShardedTxn {
	base := make([]uint64, len(s.shards))
	for i, c := range s.shards {
		c.mu.RLock()
		base[i] = c.acceptedOps()
		c.mu.RUnlock()
	}
	return &ShardedTxn{s: s, base: base}
}

// Pending returns the number of staged ops.
func (tx *ShardedTxn) Pending() int { return len(tx.ops) }

// Insert stages an explicit-tuple insert. The tuple must be constant on
// the shard key (checked at commit, where routing happens).
func (tx *ShardedTxn) Insert(t relation.Tuple) error {
	if tx.done {
		return ErrTxnFinished
	}
	if err := relation.ValidateTuple(tx.s.scheme, t); err != nil {
		return err
	}
	tx.ops = append(tx.ops, shardedOp{kind: txnInsert, t: t.Clone()})
	return nil
}

// InsertRow stages a row insert ("-" fresh null, "-k" marked null; key
// cells must be constants). Cells parse at commit, drawing fresh marks
// from the facade-global allocator in staging order.
func (tx *ShardedTxn) InsertRow(cells ...string) error {
	if tx.done {
		return ErrTxnFinished
	}
	if len(cells) != tx.s.scheme.Arity() {
		return fmt.Errorf("relation %s: tuple arity %d, scheme arity %d",
			tx.s.scheme.Name(), len(cells), tx.s.scheme.Arity())
	}
	tx.ops = append(tx.ops, shardedOp{kind: txnInsert, row: append([]string(nil), cells...)})
	return nil
}

// Update stages a cell overwrite of the committed tuple syntactically
// identical to match. Writing a null to a key attribute is refused
// (nulls cannot be routed); an update that moves the tuple to another
// shard's key compiles to a delete+insert pair under 2PC and requires
// the moved tuple to be all-constant (its marks are shard-scoped).
func (tx *ShardedTxn) Update(match relation.Tuple, a schema.Attr, v value.V) error {
	if tx.done {
		return ErrTxnFinished
	}
	if err := relation.ValidateTuple(tx.s.scheme, match); err != nil {
		return err
	}
	// Content-addressed: row 0 of 1 passes the shared validation's range check.
	if _, err := validateUpdate(tx.s.scheme, 1, 0, a, v); err != nil {
		return err
	}
	if tx.s.key.Has(a) && !v.IsConst() {
		return fmt.Errorf("store: cannot write a null to shard-key attribute %s", tx.s.scheme.AttrName(a))
	}
	tx.ops = append(tx.ops, shardedOp{kind: txnUpdate, match: match.Clone(), a: a, v: v})
	return nil
}

// Delete stages removal of the committed tuple syntactically identical
// to match.
func (tx *ShardedTxn) Delete(match relation.Tuple) error {
	if tx.done {
		return ErrTxnFinished
	}
	if err := relation.ValidateTuple(tx.s.scheme, match); err != nil {
		return err
	}
	tx.ops = append(tx.ops, shardedOp{kind: txnDelete, match: match.Clone()})
	return nil
}

// Rollback discards the transaction without touching any shard.
func (tx *ShardedTxn) Rollback() {
	tx.done = true
	tx.ops = nil
}

// Commit routes the staged write-set and applies it atomically across
// every touched shard (single shard: that shard's lock only; several:
// 2PC under all touched locks). Errors are ErrTxnConflict,
// ErrTxnFinished, or a *TxnError whose Op indexes the STAGED op list —
// wrap-matching ErrInconsistent for constraint rejections, exactly as
// the unsharded transaction reports them.
func (tx *ShardedTxn) Commit() error {
	if tx.done {
		return ErrTxnFinished
	}
	tx.done = true
	if len(tx.ops) == 0 {
		return nil
	}
	return tx.s.commitOps(tx.ops, tx.base)
}

// ---- single-op facade (one-op write-sets, no conflict baseline) ----

// Insert adds one tuple through its home shard (no cross-shard locks,
// no conflict window — like the unsharded per-op Insert).
func (s *Sharded) Insert(t relation.Tuple) error {
	if err := relation.ValidateTuple(s.scheme, t); err != nil {
		return err
	}
	return s.commitOps([]shardedOp{{kind: txnInsert, t: t.Clone()}}, nil)
}

// InsertRow parses and inserts one row through its home shard.
func (s *Sharded) InsertRow(cells ...string) error {
	if len(cells) != s.scheme.Arity() {
		return fmt.Errorf("relation %s: tuple arity %d, scheme arity %d",
			s.scheme.Name(), len(cells), s.scheme.Arity())
	}
	return s.commitOps([]shardedOp{{kind: txnInsert, row: append([]string(nil), cells...)}}, nil)
}

// UpdateTuple overwrites one cell of the committed tuple identical to
// match (content-addressed; see ShardedTxn.Update for the key rules).
func (s *Sharded) UpdateTuple(match relation.Tuple, a schema.Attr, v value.V) error {
	tx := &ShardedTxn{s: s}
	if err := tx.Update(match, a, v); err != nil {
		return err
	}
	return s.commitOps(tx.ops, nil)
}

// DeleteTuple removes the committed tuple identical to match.
func (s *Sharded) DeleteTuple(match relation.Tuple) error {
	if err := relation.ValidateTuple(s.scheme, match); err != nil {
		return err
	}
	return s.commitOps([]shardedOp{{kind: txnDelete, match: match.Clone()}}, nil)
}

// ---- the coordinator ----

// offendingOpGlobal is Store.offendingOp lifted to the sharded commit:
// the earliest staged op k whose global prefix [0..k] is already
// unsatisfiable. Shard independence turns the global test into a
// per-shard one — the prefix fails iff some shard's sub-prefix with
// gidx <= k fails — so the scan clones and resolves only touched
// shards. Called under every touched shard's write lock, after all
// prepares were discarded (shard state is committed state), and only on
// the rejection path; like the unsharded scan it is quadratic in the
// write-set and never runs on accepted commits.
func (s *Sharded) offendingOpGlobal(touched []int, shardOps map[int][]txnOp, gidxOf map[int][]int, nops int) int {
	for k := 0; k < nops-1; k++ {
		for _, si := range touched {
			// gidxOf[si] ascends, so the ops at or below k are a prefix.
			n := sort.SearchInts(gidxOf[si], k+1)
			if n > 0 && s.shards[si].rejects(shardOps[si][:n]) {
				return k
			}
		}
	}
	return nops - 1
}

// routedOp is one per-shard op awaiting index resolution, tagged with
// the staged op it came from (for error attribution and stats).
type routedOp struct {
	gidx int // index into the staged op list
	op   shardedOp
	ins  relation.Tuple // pre-parsed tuple for txnInsert
}

// slotSim replays one write-set's swap-and-pop evolution of one shard's
// tentative instance, so that content-addressed targets resolve to the
// slots the engine will see. It tracks only what the write-set's own
// deletes displaced — a commit costs what it touches, not one word per
// committed row: wherever the maps are silent, committed row j sits in
// slot j and the slots from n up hold staged inserts.
type slotSim struct {
	n, length int         // committed rows; rows of the tentative instance
	slotOf    map[int]int // displaced committed row -> its slot now (-1: deleted)
	rowAt     map[int]int // displaced slot -> the committed row in it (-1: a staged insert)
}

// slot returns committed row j's current slot, or -1 once deleted.
func (m *slotSim) slot(j int) int {
	if cur, ok := m.slotOf[j]; ok {
		return cur
	}
	return j
}

func (m *slotSim) occupant(slot int) int {
	if j, ok := m.rowAt[slot]; ok {
		return j
	}
	if slot < m.n {
		return slot
	}
	return -1
}

func (m *slotSim) insert() {
	if m.rowAt != nil { // possibly into a slot some delete freed
		m.rowAt[m.length] = -1
	}
	m.length++
}

// delete removes committed row j from its slot: the last slot's occupant
// moves into it.
func (m *slotSim) delete(j, slot int) {
	if m.slotOf == nil {
		m.slotOf, m.rowAt = map[int]int{}, map[int]int{}
	}
	m.length--
	m.slotOf[j] = -1
	if slot != m.length {
		moved := m.occupant(m.length)
		m.rowAt[slot] = moved
		if moved >= 0 {
			m.slotOf[moved] = slot
		}
	}
}

// commitOps is the whole commit pipeline: parse rows and advance the
// global allocator in staging order, route every op to its home shard,
// lock the touched shards in ascending order, validate (conflict
// baselines, durable gates), resolve content-addressed targets to
// in-shard indices, prepare on every shard, and apply everywhere —
// or discard everywhere and restore the allocator. base == nil skips
// conflict validation (the single-op facade).
func (s *Sharded) commitOps(ops []shardedOp, base []uint64) error {
	// ---- mark pre-pass: replicate the unsharded committer's allocator
	// effects (ParseRow for "-", noteMark for explicit marks) in staging
	// order against the facade-global watermark.
	needMarks := false
	for _, op := range ops {
		if op.mayAllocate() {
			needMarks = true
			break
		}
	}
	scratch := relation.New(s.scheme)
	var markBefore, markAfter int
	if needMarks {
		s.markMu.Lock()
		markBefore = s.nextMark
		scratch.SetNextMark(s.nextMark)
	}
	parsed := make([]relation.Tuple, len(ops))
	var parseErr error
	parseBad := -1
	for k, op := range ops {
		switch op.kind {
		case txnInsert:
			t := op.t
			if t == nil {
				var err error
				t, err = scratch.ParseRow(op.row...)
				if err != nil {
					parseErr, parseBad = err, k
				}
			}
			if parseErr != nil {
				break
			}
			for _, v := range t {
				if v.IsNull() && v.Mark() >= scratch.NextMark() {
					scratch.SetNextMark(v.Mark() + 1)
				}
			}
			parsed[k] = t
		case txnUpdate:
			if op.v.IsNull() && op.v.Mark() >= scratch.NextMark() {
				scratch.SetNextMark(op.v.Mark() + 1)
			}
		}
		if parseErr != nil {
			break
		}
	}
	if needMarks {
		if parseErr == nil {
			s.nextMark = scratch.NextMark()
		}
		markAfter = scratch.NextMark()
		s.markMu.Unlock()
	}
	if parseErr != nil {
		return &TxnError{Op: parseBad, OpDesc: ops[parseBad].describe(s.scheme), Err: parseErr}
	}
	// restoreMarks rolls the global allocator back after an abort —
	// only if no concurrent committer allocated in between (then the
	// marks are burned, which is harmless: the allocator is monotone).
	// The sequential case restores exactly, matching the unsharded
	// store's rejected-commit allocator behavior mark-for-mark.
	restoreMarks := func() {
		if !needMarks {
			return
		}
		s.markMu.Lock()
		if s.nextMark == markAfter {
			s.nextMark = markBefore
		}
		s.markMu.Unlock()
	}

	// ---- route (no locks: routing reads only the staged tuples' keys).
	perShard := make(map[int][]routedOp)
	structural := func(k int, err error) error {
		restoreMarks()
		return &TxnError{Op: k, OpDesc: ops[k].describe(s.scheme), Err: err}
	}
	for k, op := range ops {
		switch op.kind {
		case txnInsert:
			si, err := s.ShardOf(parsed[k])
			if err != nil {
				return structural(k, err)
			}
			perShard[si] = append(perShard[si], routedOp{gidx: k, op: op, ins: parsed[k]})
		case txnUpdate:
			si, err := s.ShardOf(op.match)
			if err != nil {
				return structural(k, err)
			}
			if s.key.Has(op.a) && !op.v.Identical(op.match[op.a]) {
				moved := op.match.Clone()
				moved[op.a] = op.v
				sj, err := s.ShardOf(moved)
				if err != nil {
					return structural(k, err)
				}
				if sj != si {
					// Cross-shard key move: compiles to delete+insert under
					// 2PC. Marks are shard-scoped, so a null-bearing tuple
					// cannot migrate.
					for _, v := range moved {
						if !v.IsConst() {
							return structural(k, fmt.Errorf("store: cross-shard key update of a null-bearing tuple is unsupported (marks are shard-scoped)"))
						}
					}
					perShard[si] = append(perShard[si], routedOp{gidx: k, op: shardedOp{kind: txnDelete, match: op.match}})
					perShard[sj] = append(perShard[sj], routedOp{gidx: k, op: shardedOp{kind: txnInsert, t: moved}, ins: moved})
					continue
				}
			}
			perShard[si] = append(perShard[si], routedOp{gidx: k, op: op})
		default:
			si, err := s.ShardOf(op.match)
			if err != nil {
				return structural(k, err)
			}
			perShard[si] = append(perShard[si], routedOp{gidx: k, op: op})
		}
	}
	touched := make([]int, 0, len(perShard))
	for si := range perShard {
		touched = append(touched, si)
	}
	sort.Ints(touched)

	// ---- lock every touched shard, ascending (the global lock order).
	for _, si := range touched {
		s.shards[si].mu.Lock()
	}
	unlockAll := func() {
		for _, si := range touched {
			s.shards[si].mu.Unlock()
		}
	}

	// ---- validate: per-shard first-committer-wins, then durable gates.
	if base != nil {
		for _, si := range touched {
			if s.shards[si].acceptedOps() != base[si] {
				unlockAll()
				restoreMarks()
				return ErrTxnConflict
			}
		}
	}
	for _, si := range touched {
		if err := s.shards[si].wal.gate(); err != nil {
			unlockAll()
			restoreMarks()
			return err
		}
	}

	// ---- resolve content-addressed targets to in-shard index ops.
	// Find runs against the shard's committed relation (unchanged until
	// prepare), and a per-shard slot simulation replays this write-set's
	// own swap-and-pop evolution so later ops address the right slots.
	shardOps := make(map[int][]txnOp, len(perShard))
	gidxOf := make(map[int][]int, len(perShard))
	for _, si := range touched {
		st := s.shards[si]
		sim := slotSim{n: st.rel.Len(), length: st.rel.Len()}
		locate := func(match relation.Tuple) (row, slot int, err error) {
			if row = st.rel.FindIdentical(match); row < 0 {
				return -1, -1, fmt.Errorf("store: no committed tuple identical to %s", match)
			}
			if slot = sim.slot(row); slot < 0 {
				return -1, -1, fmt.Errorf("store: tuple %s already deleted by an earlier op of this write-set", match)
			}
			return row, slot, nil
		}
		for _, ro := range perShard[si] {
			switch ro.op.kind {
			case txnInsert:
				shardOps[si] = append(shardOps[si], txnOp{kind: txnInsert, t: ro.ins})
				sim.insert()
			case txnUpdate:
				_, ti, err := locate(ro.op.match)
				if err != nil {
					unlockAll()
					return structural(ro.gidx, err)
				}
				shardOps[si] = append(shardOps[si], txnOp{kind: txnUpdate, ti: ti, a: ro.op.a, v: ro.op.v})
			default:
				row, ti, err := locate(ro.op.match)
				if err != nil {
					unlockAll()
					return structural(ro.gidx, err)
				}
				shardOps[si] = append(shardOps[si], txnOp{kind: txnDelete, ti: ti})
				sim.delete(row, ti)
			}
			gidxOf[si] = append(gidxOf[si], ro.gidx)
		}
	}

	// ---- prepare everywhere; apply everywhere or discard everywhere.
	// Every touched shard is prepared even after one fails: when the
	// write-set carries independent violations on several shards, the
	// blame must fall on the EARLIEST staged offending op — exactly the
	// op the unsharded store would report, since shard independence
	// makes the first inconsistent global prefix end at the minimal
	// per-shard first failure. Fail-fast would blame whichever failing
	// shard sorts first instead; the extra prepares only cost work on
	// the failure path and are discarded below.
	prepared := make([]*preparedTxn, 0, len(touched))
	type shardFail struct {
		si  int
		err error
	}
	var fails []shardFail
	for _, si := range touched {
		p, err := s.shards[si].prepareTxn(shardOps[si])
		if err != nil {
			fails = append(fails, shardFail{si: si, err: err})
			continue
		}
		prepared = append(prepared, p)
	}
	if len(fails) > 0 {
		// Restore every successfully prepared shard FIRST: the incremental
		// engine prepares in place, and the attribution scan below must
		// read committed shard state.
		for i := len(prepared) - 1; i >= 0; i-- {
			prepared[i].discard()
		}
		// Blame exactly as the unsharded engines do. Both apply the
		// write-set structurally before any chase, so a structural failure
		// — at the earliest staged op that has one — dominates every
		// inconsistency. Only a purely constraint-rejected set gets the
		// offendingOp treatment: the earliest op whose global PREFIX is
		// already unsatisfiable, which can sit on a shard whose own full
		// subsequence prepared fine (a later op of the set repaired its
		// conflict), so the per-shard errors cannot answer it and the
		// prefix scan below re-derives it across the touched shards.
		bestG := -1
		var bestErr error
		for _, f := range fails {
			var terr *TxnError
			if errors.As(f.err, &terr) && !errors.Is(f.err, ErrInconsistent) {
				if g := gidxOf[f.si][terr.Op]; bestG < 0 || g < bestG {
					bestG, bestErr = g, f.err
				}
			}
		}
		if bestG < 0 {
			for _, f := range fails {
				var terr *TxnError
				if errors.As(f.err, &terr) && errors.Is(f.err, ErrInconsistent) {
					bestErr = f.err
					break
				}
			}
			if bestErr != nil {
				bestG = s.offendingOpGlobal(touched, shardOps, gidxOf, len(ops))
			}
		}
		unlockAll()
		restoreMarks()
		if bestErr == nil {
			// Not a transaction-shaped error (an internal failure);
			// propagate the first one as-is.
			if errors.Is(fails[0].err, ErrInconsistent) {
				s.rejected.Add(1)
			}
			return fails[0].err
		}
		if errors.Is(bestErr, ErrInconsistent) {
			s.rejected.Add(1)
		}
		var terr *TxnError
		errors.As(bestErr, &terr) // proven above
		return &TxnError{Op: bestG, OpDesc: ops[bestG].describe(s.scheme), Err: terr.Err}
	}
	var logErr error
	for _, p := range prepared {
		p.apply()
		// Per-shard WAL append; see the package comment for the
		// cross-shard crash-atomicity caveat.
		if err := p.st.wal.logRecord(recTxn, p.preMark, p.ops); err != nil && logErr == nil {
			logErr = err
		}
	}
	unlockAll()
	for _, op := range ops {
		switch op.kind {
		case txnInsert:
			s.inserts.Add(1)
		case txnUpdate:
			s.updates.Add(1)
		default:
			s.deletes.Add(1)
		}
	}
	return logErr
}

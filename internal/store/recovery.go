// recovery.go is the replay half of the durable store (wal.go is the
// on-disk half, faults.go the robustness layer): OpenDurable
// reconstructs the exact committed state from the manifest's checkpoint
// plus the log suffix into a *Store that carries its WAL state
// (Store.wal) and keeps the directory current by appending one record
// per accepted commit.
//
// # Recovery
//
//  1. Read MANIFEST; refuse a directory whose manifest names any
//     maintenance engine but incremental or X-rules other than false
//     (wal.go: parseManifest). Stray *.tmp leftovers from a crash
//     mid-rename are pruned, never interpreted.
//  2. Load the checkpoint relio file VERBATIM — no re-chase. The
//     checkpoint was materialized from a live store, so it is already a
//     chase fixpoint, and re-chasing could reorder tuples, invalidating
//     the op indices of every record logged after it.
//  3. Scan the segments in order. Any undecodable record NOT subsumed
//     by the checkpoint fails closed if it is outside the final
//     segment; in the final segment it is a torn tail — the file is
//     truncated at the last valid record and appending resumes there.
//     Gaps and tears entirely at or below the checkpoint seq are
//     tolerated: a degraded-mode Recover() abandons its old (possibly
//     torn) active segment and covers it with a fresh checkpoint.
//  4. Replay each record with seq > ckptseq through the store's own
//     commit paths: restore the logged pre-commit allocator watermark,
//     then re-execute the write-set through one Begin/stage/Commit
//     (a per-op record is a one-op write-set, exactly as it was when
//     first applied). A commit is a deterministic function of
//     (state, allocator, write-set), so the recovered instance is
//     bit-identical to the pre-crash committed state — crash_test.go
//     proves it at every record boundary, fault_test.go under every
//     single-fault I/O schedule.
//
// A record that fails to re-apply (it was accepted when logged) means
// the log and checkpoint disagree — tampering or a foreign checkpoint —
// and recovery fails closed rather than guessing.
//
// If the state is fully recovered but the writer cannot be established
// (the active segment cannot be sealed or created — say the volume
// remounted read-only), the open SUCCEEDS in degraded read-only mode
// instead of failing: queries serve, mutations return ErrDegraded, and
// Recover() re-establishes durability once the filesystem heals.
package store

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"fdnull/internal/fd"
	"fdnull/internal/iox"
	"fdnull/internal/relation"
	"fdnull/internal/relio"
	"fdnull/internal/schema"
)

// ErrDurableClosed reports an operation on a closed durable handle.
var ErrDurableClosed = errors.New("store: durable store is closed")

// DurableOptions configure OpenDurable.
type DurableOptions struct {
	// Scheme and FDs seed a FRESH directory (no manifest yet); both are
	// required there and ignored on reopen, where the checkpoint file is
	// the authority.
	Scheme *schema.Scheme
	FDs    []fd.FD
	// GroupCommit fsyncs the log every N commits instead of every
	// commit; <=1 means fsync-per-commit (the default). A crash loses at
	// most the last GroupCommit-1 committed-but-unsynced records — each
	// either replays completely or is truncated as a torn tail, never
	// half-applied.
	GroupCommit int
	// SegmentBytes rotates the active segment once it passes this size
	// (default 1 MiB). Everything outside the active segment is fsync'd.
	SegmentBytes int
	// CheckpointEvery takes an automatic checkpoint after N log records
	// (0 = explicit Checkpoint calls only).
	CheckpointEvery int
	// RetainSegments keeps segments a checkpoint has subsumed instead of
	// deleting them (the crash exerciser replays from any historical
	// manifest; production has no reason to set it).
	RetainSegments bool
	// FS is the filesystem all durable I/O goes through; nil means the
	// production passthrough (iox.OS). Tests install iox.FaultFS to
	// inject deterministic disk-fault schedules.
	FS iox.FS
	// RetrySleep replaces time.Sleep between the retries of a transient
	// fault (ioEnv.retry; deterministic tests); nil means time.Sleep.
	RetrySleep func(time.Duration)
}

func (o DurableOptions) segmentBytes() int64 {
	if o.SegmentBytes <= 0 {
		return 1 << 20
	}
	return int64(o.SegmentBytes)
}

// durable is the WAL state of a store opened with OpenDurable, held in
// Store.wal: accepted commits are write-ahead logged through it and the
// state survives process death. A nil *durable is an in-memory store's:
// gate, logRecord, err, sync, close, health and reestablish all treat a
// nil receiver as "no WAL" and do nothing. It has no lock of its own —
// everything runs under the owning Store's lock.
//
// An unrecoverable WAL failure does not kill the handle: it DEGRADES it
// to read-only (faults.go). The failed commit is in memory but may not
// be on disk; queries and snapshots keep serving, every later mutation
// returns ErrDegraded wrapping the root cause, Health() reports the
// state, and Recover() re-establishes durability with a fresh
// checkpoint + segment.
type durable struct {
	st   *Store
	w    *walWriter
	dir  string
	opts DurableOptions
	env  *ioEnv
	// recsSinceCkpt drives CheckpointEvery.
	recsSinceCkpt int
	ckptSeq       uint64
	// mode/cause implement degraded read-only mode (faults.go): the
	// zero mode is healthy; degrade() moves to modeDegraded with the
	// first root cause; close moves to modeClosed.
	mode  uint8
	cause error
	// ckptInFlight is set while Store.Checkpoint serializes a
	// snapshot outside the write lock. Auto-checkpoints (which run under
	// that lock) skip while it is set, so two checkpoints never write
	// MANIFEST.tmp concurrently and a finished checkpoint can never
	// repoint the manifest behind a newer one whose pruneWAL already ran.
	ckptInFlight bool
}

// OpenDurable opens (or creates) a durable store in dir: many readers
// and transaction stagers in parallel, writers serialized at commit, one
// log record per accepted commit (appended under the write lock, so log
// order IS commit order).
// A fresh dir needs opts.Scheme and opts.FDs; a reopen replays
// checkpoint + log suffix and ignores them. When the state is fully
// recovered but a writable segment cannot be established, the handle
// opens in degraded read-only mode instead of failing (check
// Health().Degraded).
func OpenDurable(dir string, opts DurableOptions) (*Store, error) {
	d, err := openWAL(newIOEnv(opts), dir, opts)
	if err != nil {
		return nil, err
	}
	d.st.wal = d
	return d.st, nil
}

// err returns the degradation root cause, ErrDurableClosed after close,
// or nil while the handle is healthy.
func (d *durable) err() error {
	if d == nil {
		return nil
	}
	switch d.mode {
	case modeDegraded:
		return d.cause
	case modeClosed:
		return ErrDurableClosed
	}
	return nil
}

// logRecord appends one record for an accepted commit: the logical
// write-set as staged (never the substituted post-state), the mode it
// was applied under, and the fresh-mark allocator watermark as of just
// before the commit (FreshNull advances the allocator without a commit,
// so replay must restore it before re-parsing "-" cells). The ops alias
// the caller's tuples and cells; append encodes them before returning.
// It runs AFTER the in-memory state changed, so an error here reaches
// the committing caller with the commit applied in memory — the handle
// degrades, and every later mutation is refused by gate().
func (d *durable) logRecord(mode recMode, preMark int, ops []txnOp) error {
	if d == nil {
		return nil
	}
	if err := d.gate(); err != nil {
		return err
	}
	if _, err := d.w.append(mode, preMark, ops); err != nil {
		return d.degrade(walFail(err, "append"))
	}
	if d.w.needsRotation() {
		// Seal the active segment first: the fsync covers this record if
		// it is still inside the group-commit window, so a seal failure
		// IS the commit's error.
		if err := d.w.sync(); err != nil {
			return d.degrade(walFail(err, "sync at rotation"))
		}
		// The record is durable from here on; a failure starting the next
		// segment breaks the writer (degrade) but must not be reported as
		// this commit's failure.
		if err := d.w.rotate(); err != nil {
			d.degrade(walFail(err, "rotate segment"))
			return nil
		}
	}
	d.recsSinceCkpt++
	if d.opts.CheckpointEvery > 0 && d.recsSinceCkpt >= d.opts.CheckpointEvery && !d.ckptInFlight {
		if err := d.w.sync(); err != nil {
			// The triggering commit may not be on disk yet; this IS its
			// error.
			return d.degrade(walFail(err, "sync before checkpoint"))
		}
		// The commit is durable from here on. A failure in the checkpoint
		// itself degrades the handle (so every LATER mutation reports it)
		// but is not this commit's error — returning it would tell the
		// caller a durably applied commit failed. All three steps run
		// inline, under the committing writer's lock.
		if view, watermark, seq, err := d.capture(); err == nil {
			err = writeCheckpoint(d.env, d.dir, d.st, view, watermark, seq)
			if d.publish(seq, err) == nil && !d.opts.RetainSegments {
				pruneWAL(d.env.fs, d.dir, seq, d.w.name)
			}
		}
	}
	return nil
}

// sync forces every appended record to disk, ending the group-commit
// window early.
func (d *durable) sync() error {
	if d == nil {
		return nil
	}
	if err := d.gate(); err != nil {
		return err
	}
	if err := d.w.sync(); err != nil {
		return d.degrade(walFail(err, "sync"))
	}
	return nil
}

// capture is a checkpoint's first step: seal the log, then take what the
// image is written from — an O(1) copy-on-write view, the allocator
// watermark, and the last seq the view contains. Under the write lock.
func (d *durable) capture() (view relation.View, watermark int, seq uint64, err error) {
	if err := d.w.sync(); err != nil {
		return relation.View{}, 0, 0, d.degrade(walFail(err, "sync before checkpoint"))
	}
	return d.st.rel.View(), d.st.rel.NextMark(), d.w.nextSeq - 1, nil
}

// publish is a checkpoint's last step, given writeCheckpoint's outcome
// for the image captured at seq: move the checkpoint seq and restart the
// CheckpointEvery cadence, or degrade. Under the write lock.
func (d *durable) publish(seq uint64, writeErr error) error {
	if writeErr != nil {
		d.degrade(writeErr)
		return writeErr
	}
	d.ckptSeq = seq
	d.recsSinceCkpt = 0
	return nil
}

// close syncs and closes the log; mutations return ErrDurableClosed
// afterwards. Closing a DEGRADED handle never touches the abandoned
// fd's durability (fsyncgate): it just releases the descriptor and
// returns the degradation cause.
func (d *durable) close() error {
	if d == nil {
		return nil
	}
	switch d.mode {
	case modeClosed:
		return ErrDurableClosed
	case modeDegraded:
		if d.w.f != nil {
			d.w.f.Close() // errcheck:ok abandoned post-fault fd; syncing it is forbidden, closing it is best-effort
			d.w.f = nil
		}
		cause := d.cause
		d.mode = modeClosed
		return cause
	}
	if err := d.w.close(); err != nil {
		// The final sync (or close) failed: the unsynced suffix may be
		// gone. Degrade rather than close, so the caller can Recover()
		// and retry — or Close again to give up.
		return d.degrade(walFail(err, "close"))
	}
	d.mode = modeClosed
	return nil
}

// ---- the durability surface of the store ----
//
// On an in-memory store (New, FromRelation) every method below is a
// no-op returning nil, and Health reports Mode "memory".

// Err returns the degradation root cause, ErrDurableClosed after Close,
// or nil while the handle is healthy.
func (st *Store) Err() error {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return st.wal.err()
}

// Sync forces the group-commit window closed under the write lock.
func (st *Store) Sync() error {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.wal.sync()
}

// Checkpoint snapshots the current state into a relio checkpoint file,
// repoints the manifest at it, and prunes the log prefix it subsumes
// (unless RetainSegments). The image is captured under the write lock —
// an O(1) copy-on-write view — and serialized outside it, so writers
// keep committing, and logging, throughout; the checkpoint simply pins
// the seq it captured. Checkpoints never overlap: while one is
// serializing, a concurrent Checkpoint call returns nil without doing
// anything (the in-flight checkpoint covers a seq at most
// CheckpointEvery-ish older) and auto-checkpoints are skipped.
func (st *Store) Checkpoint() error {
	d := st.wal
	if d == nil {
		return nil
	}
	st.mu.Lock()
	if err := d.gate(); err != nil || d.ckptInFlight {
		st.mu.Unlock()
		return err // the gate's refusal, or nil behind the checkpoint in flight
	}
	view, watermark, seq, err := d.capture()
	if err != nil {
		st.mu.Unlock()
		return err
	}
	d.ckptInFlight = true
	st.mu.Unlock()

	// Lock-free: the view is immutable; writers COW around it.
	err = writeCheckpoint(d.env, d.dir, st, view, watermark, seq)

	st.mu.Lock()
	d.ckptInFlight = false
	err = d.publish(seq, err)
	activeName := d.w.name
	st.mu.Unlock()
	if err == nil && !d.opts.RetainSegments {
		pruneWAL(d.env.fs, d.dir, seq, activeName)
	}
	return err
}

// Close syncs and closes the log under the write lock. Reads keep
// serving; mutations return ErrDurableClosed, as does a second Close.
func (st *Store) Close() error {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.wal.close()
}

// ---- shared open/replay machinery ----

// openWAL opens or creates the WAL directory and returns the WAL state
// of the reconstructed store (d.st; not yet attached as d.st.wal, so
// replay is neither gated nor re-logged).
func openWAL(env *ioEnv, dir string, opts DurableOptions) (*durable, error) {
	manifestPath := filepath.Join(dir, manifestName)
	if _, err := env.fs.Stat(manifestPath); errors.Is(err, os.ErrNotExist) {
		return initWAL(env, dir, opts)
	} else if err != nil {
		return nil, walFail(err, "stat manifest")
	}
	pruneStrayTmp(env.fs, dir)
	return replayWAL(env, dir, opts)
}

// pruneStrayTmp removes leftover "*.tmp" files — a crash between
// writing MANIFEST.tmp / a checkpoint temp and its rename leaves one
// behind. A temp file is by construction never referenced by the
// manifest, so removal can never lose state; failures are advisory
// (every scan ignores the *.tmp suffix anyway).
func pruneStrayTmp(fs iox.FS, dir string) {
	entries, err := fs.ReadDir(dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".tmp") {
			fs.Remove(filepath.Join(dir, e.Name())) // errcheck:ok advisory cleanup of unreferenced temp files
		}
	}
}

// initWAL seeds a fresh directory: empty checkpoint, manifest, first
// segment.
func initWAL(env *ioEnv, dir string, opts DurableOptions) (*durable, error) {
	if opts.Scheme == nil {
		return nil, walError("fresh durable dir %q needs DurableOptions.Scheme and FDs", dir)
	}
	if err := env.retry(func() error { return env.fs.MkdirAll(dir, 0o755) }); err != nil {
		return nil, walFail(err, "create dir")
	}
	st := New(opts.Scheme, opts.FDs, Options{})
	if err := writeCheckpoint(env, dir, st, st.rel.View(), st.rel.NextMark(), 0); err != nil {
		return nil, err
	}
	w := &walWriter{
		env:          env,
		dir:          dir,
		nextSeq:      1,
		groupCommit:  opts.GroupCommit,
		segmentBytes: opts.segmentBytes(),
	}
	if err := w.newSegment(1); err != nil {
		return nil, walFail(err, "create first segment")
	}
	return &durable{st: st, w: w, dir: dir, opts: opts, env: env}, nil
}

// writeCheckpoint serializes a snapshot (lock-free, from a COW view)
// into ckpt-<seq>.relio and atomically repoints the manifest at it.
// The checkpoint-file replacement and the manifest replacement are each
// one transient-retry unit: every attempt rewrites its temp file
// through fresh fds, so no failed fsync is ever retried on a live fd.
func writeCheckpoint(env *ioEnv, dir string, st *Store, view relation.View, watermark int, seq uint64) error {
	name := ckptName(seq)
	tmp := filepath.Join(dir, name+".tmp")
	img := &relio.File{
		Scheme:   st.scheme,
		FDs:      st.fds,
		Relation: view.Materialize(),
		NextMark: watermark,
	}
	err := env.retry(func() error {
		f, err := env.fs.Create(tmp)
		if err != nil {
			return err
		}
		ok := false
		defer func() {
			if !ok {
				f.Close()          // errcheck:ok failed attempt; the fd is abandoned either way
				env.fs.Remove(tmp) // errcheck:ok best-effort cleanup; open() prunes stray *.tmp too
			}
		}()
		if err := relio.Write(f, img); err != nil {
			return err
		}
		if err := f.Sync(); err != nil {
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		if err := env.fs.Rename(tmp, filepath.Join(dir, name)); err != nil {
			return err
		}
		ok = true
		return env.fs.SyncDir(dir)
	})
	if err != nil {
		return walFail(err, "checkpoint %s", name)
	}
	if err := writeManifest(env, dir, walManifest{checkpoint: name, ckptSeq: seq}); err != nil {
		return walFail(err, "manifest")
	}
	return nil
}

// pruneWAL deletes segments and checkpoints a new checkpoint at ckptSeq
// has subsumed. A segment is gone once the NEXT segment starts at or
// before ckptSeq+1 (so every record in it has seq <= ckptSeq); the
// active segment always stays. Pruning is advisory — failures leave
// garbage, never lose data — so errors are ignored.
func pruneWAL(fs iox.FS, dir string, ckptSeq uint64, activeName string) {
	segs, err := listSegments(fs, dir)
	if err != nil {
		return
	}
	for i, name := range segs {
		if name == activeName || i+1 >= len(segs) {
			break
		}
		nextFirst, ok := parseSegName(segs[i+1])
		if !ok || nextFirst > ckptSeq+1 {
			break
		}
		fs.Remove(filepath.Join(dir, name)) // errcheck:ok advisory pruning; the recovery scan tolerates subsumed leftovers
	}
	entries, err := fs.ReadDir(dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		if seq, ok := parseCkptName(e.Name()); ok && seq < ckptSeq {
			fs.Remove(filepath.Join(dir, e.Name())) // errcheck:ok advisory pruning; only the manifest's checkpoint is authoritative
		}
	}
}

// replayWAL recovers: manifest, checkpoint, then the log suffix.
//
// The segment scan enforces one principle: every seq ABOVE the
// manifest's checkpoint seq must be decoded exactly once, contiguously;
// seqs at or below it may be missing, torn, or gapped — the checkpoint
// already contains their effects. (Recover() legitimately leaves an
// abandoned, possibly-torn old active segment behind a fresh
// checkpoint; real corruption of needed records still fails closed.)
func replayWAL(env *ioEnv, dir string, opts DurableOptions) (*durable, error) {
	mb, err := readFileRetry(env, filepath.Join(dir, manifestName))
	if err != nil {
		return nil, walFail(err, "read manifest")
	}
	m, err := parseManifest(string(mb))
	if err != nil {
		return nil, walError("%v", err)
	}
	ckb, err := readFileRetry(env, filepath.Join(dir, m.checkpoint))
	if err != nil {
		return nil, walFail(err, "read checkpoint %s", m.checkpoint)
	}
	parsed, err := relio.ParseString(string(ckb))
	if err != nil {
		return nil, walError("parse checkpoint %s: %v", m.checkpoint, err)
	}
	// Adopt the checkpoint verbatim — it is a fixpoint materialized from
	// a live store, and replay's op indices depend on its exact tuple
	// order, which a re-chase could permute.
	st := New(parsed.Scheme, parsed.FDs, Options{})
	st.rel = parsed.Relation

	segs, err := listSegments(env.fs, dir)
	if err != nil {
		return nil, walFail(err, "list segments")
	}
	// handle finishes the open around the recovered state: healthy, or —
	// when the state was recovered but durability could not be
	// established — degraded with that cause (w is then fileless).
	handle := func(w *walWriter, degraded error) (*durable, error) {
		d := &durable{st: st, w: w, dir: dir, opts: opts, env: env, ckptSeq: m.ckptSeq}
		if degraded != nil {
			d.mode, d.cause = modeDegraded, degraded
			env.degradations++
		}
		return d, nil
	}
	newWriter := func() *walWriter {
		return &walWriter{
			env: env, dir: dir,
			groupCommit: opts.GroupCommit, segmentBytes: opts.segmentBytes(),
		}
	}
	if len(segs) == 0 {
		// All segments pruned or never created (a crash between manifest
		// and first segment); resume at the seq after the checkpoint.
		w := newWriter()
		w.nextSeq = m.ckptSeq + 1
		w.syncedSeq = m.ckptSeq
		if err := w.newSegment(m.ckptSeq + 1); err != nil {
			// The state is fully recovered; only appending is impossible.
			// Serve degraded instead of dying (Recover() retries later).
			return handle(w, walFail(err, "create segment"))
		}
		return handle(w, nil)
	}

	firstSeg, _ := parseSegName(segs[0])
	if firstSeg > m.ckptSeq+1 {
		return nil, walError("log gap: checkpoint covers seqs <=%d but the oldest segment starts at %d", m.ckptSeq, firstSeg)
	}
	expect := firstSeg
	var lastName string
	var lastEnd int64
	for i, name := range segs {
		first, _ := parseSegName(name)
		if first != expect {
			if first > expect && first <= m.ckptSeq+1 {
				// The gap [expect, first) is entirely subsumed by the
				// checkpoint — a Recover() started this segment right after
				// its checkpoint, abandoning whatever preceded it.
				expect = first
			} else {
				return nil, walError("segment %s starts at seq %d, want %d (missing or reordered segment)", name, first, expect)
			}
		}
		data, err := readFileRetry(env, filepath.Join(dir, name))
		if err != nil {
			return nil, walFail(err, "read segment %s", name)
		}
		recs, end, scanErr := scanSegment(data)
		for _, rec := range recs {
			if rec.seq != expect {
				if rec.seq > expect && rec.seq <= m.ckptSeq+1 {
					// In-segment gap subsumed by the checkpoint (a failed
					// append's seq was never reused before Recover()).
					expect = rec.seq
				} else {
					return nil, walError("segment %s: record seq %d, want %d (log not contiguous)", name, rec.seq, expect)
				}
			}
			expect++
			if rec.seq <= m.ckptSeq {
				continue // already inside the checkpoint
			}
			if err := replayRecord(st, rec); err != nil {
				return nil, walError("replay seq %d: %v", rec.seq, err)
			}
		}
		if scanErr != nil && i != len(segs)-1 {
			// A sealed segment normally never tears. The one legal tear is
			// an abandoned pre-Recover() active segment whose every record
			// — decoded or torn — sits at or below the checkpoint seq; then
			// the next segment's contiguity check proves nothing needed is
			// missing. A tear above the checkpoint is corruption of
			// records replay needs: fail closed.
			if expect > m.ckptSeq+1 {
				return nil, walError("segment %s: %v", name, scanErr)
			}
		}
		// (In the final segment a scan error is the torn tail: drop
		// everything from the first invalid byte on. Truncation happens
		// after replay so a replay failure leaves the log untouched for
		// inspection.)
		lastName, lastEnd = name, int64(end)
	}
	if expect < m.ckptSeq+1 {
		// The log ends inside the checkpoint's coverage (its tail was
		// dropped by a failed sync before Recover() checkpointed); new
		// records must still take seqs the checkpoint does not claim.
		expect = m.ckptSeq + 1
	}

	// Seal the torn tail (if any) and position the writer at the end of
	// the final segment. From here on the STATE is fully recovered: any
	// failure establishing the writer degrades the open instead of
	// failing it.
	degradedOpen := func(cause error, f iox.File) (*durable, error) {
		if f != nil {
			f.Close() // errcheck:ok abandoned fd on the degraded-open path
		}
		w := newWriter()
		w.nextSeq = expect
		w.syncedSeq = expect - 1
		return handle(w, cause)
	}
	f, err := env.fs.OpenRW(filepath.Join(dir, lastName))
	if err != nil {
		return degradedOpen(walFail(err, "open active segment"), nil)
	}
	if lastEnd < int64(len(walMagic)) {
		if _, err := f.WriteAt([]byte(walMagic), 0); err != nil {
			return degradedOpen(walFail(err, "rewrite segment header"), f)
		}
		lastEnd = int64(len(walMagic))
	}
	if err := f.Truncate(lastEnd); err != nil {
		return degradedOpen(walFail(err, "truncate torn tail"), f)
	}
	if err := f.Sync(); err != nil {
		return degradedOpen(walFail(err, "sync active segment"), f)
	}
	if _, err := f.Seek(lastEnd, 0); err != nil {
		return degradedOpen(walFail(err, "seek active segment"), f)
	}
	w := newWriter()
	w.f, w.name, w.size = f, lastName, lastEnd
	w.nextSeq, w.syncedOff, w.syncedSeq = expect, lastEnd, expect-1
	return handle(w, nil)
}

// readFileRetry reads a whole file under the transient-retry budget.
// Reads are idempotent, so rerunning the whole read is always safe.
func readFileRetry(env *ioEnv, path string) ([]byte, error) {
	var b []byte
	err := env.retry(func() error {
		var err error
		b, err = env.fs.ReadFile(path)
		return err
	})
	return b, err
}

// replayRecord re-executes one logged commit through the store's own
// write path: stage the write-set, commit it. A per-op record is the
// one-op case of the same loop. st.wal is not attached yet, so nothing
// is re-logged or gated.
func replayRecord(st *Store, rec walRecord) error {
	if rec.mode == recPerOp && len(rec.ops) != 1 {
		return fmt.Errorf("per-op record carries %d ops", len(rec.ops))
	}
	// FreshNull calls between commits advanced the allocator without a
	// record of their own; restore the logged watermark so re-parsed "-"
	// cells and explicit marks land exactly where they originally did.
	if rec.preMark > st.rel.NextMark() {
		st.rel.SetNextMark(rec.preMark)
	}
	tx := st.Begin()
	for i, op := range rec.ops {
		var err error
		switch op.kind {
		case txnInsert:
			if op.t != nil {
				err = tx.Insert(op.t)
			} else {
				err = tx.InsertRow(op.row...)
			}
		case txnUpdate:
			err = tx.Update(op.ti, op.a, op.v)
		default:
			err = tx.Delete(op.ti)
		}
		if err != nil {
			tx.Rollback()
			return fmt.Errorf("stage op %d: %v", i, err)
		}
	}
	return tx.Commit()
}

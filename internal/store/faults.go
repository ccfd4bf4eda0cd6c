// faults.go is the robustness layer of the durable store: the error
// taxonomy (transient vs permanent WAL failures), the bounded-backoff
// retry environment every disk operation runs under, and the degraded
// read-only mode a handle enters when durability is lost — queries keep
// serving from memory, mutations fail fast with ErrDegraded, Health()
// reports the state, and Recover() re-establishes durability by writing
// a fresh checkpoint plus a fresh segment.
//
// # Retry policy
//
// A transient fault (ENOSPC/EINTR class, see iox.Transient) is retried
// with bounded exponential backoff — but ONLY on operations that are
// whole re-write units: each attempt opens fresh file descriptors and
// rewrites all of its bytes (segment creation, checkpoint and manifest
// temp files). A failed fsync on a live fd is NEVER retried: after a
// failed fsync the kernel may have discarded the dirty pages and
// cleared the error ("fsyncgate"), so a retried fsync can falsely
// succeed while the data is gone. The writer fails closed instead and
// the handle degrades.
//
// # Degraded mode
//
// The log append runs after the in-memory state changed, so the commit
// that trips degradation is applied in memory but not durable — exactly
// like a timed-out write in a networked store: its caller got an error,
// and after Recover() (which checkpoints the live state) it will be
// durable anyway. While degraded, every mutation is rejected up front
// (before touching memory) so reads stay frozen at the degradation
// point, matching what an in-memory oracle predicts.
package store

import (
	"errors"
	"fmt"
	"time"

	"fdnull/internal/iox"
)

// ErrTransient tags WAL failures whose root cause is transient-class
// (out of space, interrupted call): errors.Is(err, ErrTransient)
// distinguishes "retry may heal this" from a permanent fault. Every
// error matching ErrTransient also matches ErrWAL.
var ErrTransient = errors.New("store: transient I/O fault")

// ErrDegraded tags every mutation rejected because the durable handle
// is in degraded read-only mode. The returned error also wraps the
// root cause (which matches ErrWAL), so existing errors.Is(err, ErrWAL)
// checks keep working.
var ErrDegraded = errors.New("store: degraded read-only mode")

// walFailure is a WAL failure carrying its low-level cause, wired into
// the taxonomy: it matches ErrWAL always, the cause's chain (so errno
// checks work), and ErrTransient when the cause is transient-class.
type walFailure struct {
	msg   string
	cause error
}

func (e *walFailure) Error() string { return e.msg }

func (e *walFailure) Unwrap() []error {
	out := []error{ErrWAL, e.cause}
	if iox.Transient(e.cause) {
		out = append(out, ErrTransient)
	}
	return out
}

// walFail wraps a low-level failure so it matches ErrWAL (and
// ErrTransient when the cause is transient-class).
func walFail(cause error, format string, args ...any) error {
	return &walFailure{
		msg:   fmt.Sprintf("%v: %s: %v", ErrWAL, fmt.Sprintf(format, args...), cause),
		cause: cause,
	}
}

// DegradedError rejects a mutation on a degraded handle. It matches
// ErrDegraded, the root cause, and (through the cause) ErrWAL.
type DegradedError struct {
	// Cause is the failure that degraded the handle.
	Cause error
}

func (e *DegradedError) Error() string {
	return fmt.Sprintf("store: degraded read-only mode (mutations disabled): %v", e.Cause)
}

func (e *DegradedError) Unwrap() []error { return []error{ErrDegraded, e.Cause} }

// Health is a point-in-time snapshot of a store handle's durability
// state and I/O counters.
type Health struct {
	// Mode is "healthy", "degraded", or "closed" — or "memory" for a
	// store without a WAL, whose other fields are all zero.
	Mode string
	// Degraded reports read-only mode: queries serve, mutations fail.
	Degraded bool
	// SyncedSeq is the last log seq known durable; NextSeq the seq the
	// next commit would take; CheckpointSeq the last seq the manifest's
	// checkpoint subsumes.
	SyncedSeq, NextSeq, CheckpointSeq uint64
	// Syncs counts successful fsyncs of the active segment, Retries the
	// transient faults healed by backoff, Degradations the times the
	// handle entered degraded mode.
	Syncs, Retries, Degradations uint64
	// Err is the root cause while degraded (nil when healthy).
	Err error
}

// handle modes. The zero value is healthy.
const (
	modeHealthy uint8 = iota
	modeDegraded
	modeClosed
)

func modeString(m uint8) string {
	switch m {
	case modeDegraded:
		return "degraded"
	case modeClosed:
		return "closed"
	}
	return "healthy"
}

// ioEnv is the I/O environment one durable handle's disk operations run
// under: the filesystem, the retry sleep, and the health counters. It
// is shared by the writer, the checkpoint path, and recovery, so every
// retry and sync lands in the same counters Health() reports.
type ioEnv struct {
	fs    iox.FS
	sleep func(time.Duration)

	syncs, retries, degradations uint64
}

func newIOEnv(opts DurableOptions) *ioEnv {
	e := &ioEnv{fs: opts.FS, sleep: opts.RetrySleep}
	if e.fs == nil {
		e.fs = iox.OS
	}
	if e.sleep == nil {
		e.sleep = time.Sleep
	}
	return e
}

// The retry budget for a TRANSIENT fault (iox.Transient: ENOSPC/EINTR
// class): extra attempts after the first failure, and the first retry's
// delay, which doubles per retry and is capped near 64ms.
const (
	retryAttempts = 3
	retryBackoff  = 500 * time.Microsecond
)

// retry runs attempt, retrying with bounded exponential backoff while
// the failure is transient. Callers guarantee the unit is safe to rerun
// whole: every attempt opens fresh fds and rewrites all of its bytes.
// (A failed fsync on a live fd must never reach here — see the package
// comment.)
func (e *ioEnv) retry(attempt func() error) error {
	backoff := retryBackoff
	for tries := 0; ; tries++ {
		err := attempt()
		if err == nil || tries >= retryAttempts || !iox.Transient(err) {
			return err
		}
		e.retries++
		e.sleep(backoff)
		if backoff < 64*time.Millisecond {
			backoff *= 2
		}
	}
}

// gate rejects work on a handle that is not healthy. Every commit path
// consults it BEFORE touching any in-memory state, so a degraded or
// closed handle refuses mutations with the instance unchanged.
func (d *durable) gate() error {
	if d == nil {
		return nil
	}
	switch d.mode {
	case modeDegraded:
		return &DegradedError{Cause: d.cause}
	case modeClosed:
		return ErrDurableClosed
	}
	return nil
}

// degrade moves the handle into degraded read-only mode (idempotent;
// the first cause wins) and returns the error for the caller to
// propagate. In-memory state keeps serving; mutations fail fast.
func (d *durable) degrade(cause error) error {
	if d.mode != modeHealthy {
		return cause
	}
	d.mode = modeDegraded
	d.cause = cause
	d.env.degradations++
	return cause
}

// health reports the handle's durability state and I/O counters.
func (d *durable) health() Health {
	if d == nil {
		return Health{Mode: "memory"}
	}
	h := Health{
		Mode:          modeString(d.mode),
		Degraded:      d.mode == modeDegraded,
		NextSeq:       d.w.nextSeq,
		SyncedSeq:     d.w.syncedSeq,
		CheckpointSeq: d.ckptSeq,
		Syncs:         d.env.syncs,
		Retries:       d.env.retries,
		Degradations:  d.env.degradations,
	}
	if d.mode == modeDegraded {
		h.Err = d.cause
	}
	return h
}

// reestablish attempts to leave degraded mode by re-establishing
// durability from the current in-memory state: write a fresh checkpoint
// — it subsumes every seq ever assigned, including any commit that was
// applied in memory but whose log append failed — then start a fresh
// active segment right after it. The abandoned segment fd is closed and
// never written again (fsyncgate); its possibly-torn tail is entirely
// subsumed by the new checkpoint, which the recovery scan tolerates.
// On failure the handle stays degraded (with the new cause) and Recover
// may be called again once the filesystem heals. It refuses while a
// concurrent Checkpoint is still serializing off-lock.
func (d *durable) reestablish() error {
	if d == nil {
		return nil
	}
	if d.ckptInFlight {
		return walError("recover: a checkpoint is in flight; retry when it finishes")
	}
	switch d.mode {
	case modeClosed:
		return ErrDurableClosed
	case modeHealthy:
		return nil
	}
	if d.w.f != nil {
		// Abandoned post-fault fd: after a failed fsync its durable state
		// is unknown; the fresh checkpoint below subsumes its contents.
		d.w.f.Close() // errcheck:ok abandoned fd, contents subsumed by the new checkpoint
		d.w.f = nil
	}
	seq := d.w.nextSeq - 1
	if err := writeCheckpoint(d.env, d.dir, d.st, d.st.rel.View(), d.st.rel.NextMark(), seq); err != nil {
		d.cause = err
		return err
	}
	d.ckptSeq = seq
	d.recsSinceCkpt = 0
	if err := d.w.newSegment(seq + 1); err != nil {
		// The state IS durable now (the checkpoint landed) but appends
		// still have nowhere to go: stay degraded.
		err = walFail(err, "recover: create segment")
		d.cause = err
		return err
	}
	d.w.nextSeq = seq + 1
	d.w.syncedSeq = seq
	d.mode = modeHealthy
	d.cause = nil
	if !d.opts.RetainSegments {
		pruneWAL(d.env.fs, d.dir, seq, d.w.name)
	}
	return nil
}

// Health reports the handle's durability state under the read lock.
func (st *Store) Health() Health {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return st.wal.health()
}

// Recover leaves degraded mode by re-establishing durability from the
// in-memory state (a no-op on a healthy handle). It holds the write
// lock throughout, so the checkpoint serialization stalls writers —
// acceptable for an emergency path that only runs while mutations fail
// anyway.
func (st *Store) Recover() error {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.wal.reestablish()
}

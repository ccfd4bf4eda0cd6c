// wal.go is the on-disk half of the durable store (recovery.go is the
// replay half): a segmented, CRC-guarded, append-only log of committed
// write-sets, plus the manifest that names the current checkpoint.
//
// # Log records
//
// One record per accepted top-level commit — a per-op mutation or a
// whole transaction — framed as
//
//	u32 payloadLen | u32 crc32c(payload) | payload
//
// (little-endian fixed-width frame so a torn tail is detected by length
// or checksum, never by a parser running off the end). The payload is
// self-contained:
//
//	uvarint seq        — position in the global log, contiguous from 1
//	byte    mode       — 0 per-op, 1 transaction
//	uvarint preMark    — fresh-mark allocator watermark BEFORE the commit
//	uvarint nops
//	nops ×  op
//
// Ops are the store's logical write-set exactly as staged (txn.go's
// txnOp): insert-tuple, insert-row (raw cells, re-parsed at replay so
// "-" draws the same fresh marks), update, delete. Logical logging
// works because both maintenance engines are deterministic functions of
// (state, engine, allocator, write-set); the manifest pins the engine so
// replay cannot run under the other one. The two reach the same states
// in the same tuple order — deletes included, both swap-and-pop — but
// that agreement is what the lockstep exercisers prove, not something
// recovery assumes (recovery.go, step 1).
//
// # Segments
//
// Records append to wal-<firstSeq>.seg files (8-byte magic header; the
// first record's seq names the file). A segment past SegmentBytes is
// fsync'd and closed, so every byte outside the active segment is
// durable; only the active tail can tear. Group commit defers fsync
// until GroupCommit records are pending (Sync, rotation, checkpoint and
// Close all force it), trading a bounded window of committed-but-
// unsynced records for an fsync amortized over the group.
//
// # Manifest and checkpoints
//
// MANIFEST is a tiny text file naming the maintenance engine, the
// X-rules setting, the current checkpoint file (a relio snapshot with a
// nextmark watermark), and ckptseq — the last log seq the checkpoint
// already contains. It is replaced atomically (write temp, fsync,
// rename, fsync dir), so a crash during checkpointing leaves either the
// old or the new manifest, each naming a consistent (checkpoint, log
// suffix) pair.
package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"fdnull/internal/iox"
	"fdnull/internal/schema"
	"fdnull/internal/value"
)

// recMode distinguishes how a logged write-set was committed — and so
// how replay re-applies it: per-op records replay through the matching
// Store method, transaction records through one Begin/stage/Commit.
type recMode uint8

const (
	recPerOp recMode = iota
	recTxn
)

const (
	walMagic     = "FDWAL001"
	walFrameSize = 8 // u32 len + u32 crc
	// maxWALRecord bounds a record's payload length. A length-lying frame
	// can therefore never force a giant allocation: decoding fails closed
	// before any buffer is sized from attacker-controlled input.
	maxWALRecord = 1 << 26

	manifestName = "MANIFEST"
	segSuffix    = ".seg"
	segPrefix    = "wal-"
	ckptPrefix   = "ckpt-"
	ckptSuffix   = ".relio"
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// ErrWAL is the sentinel every durability failure matches:
// errors.Is(err, ErrWAL) reports that the write-ahead log (append,
// fsync, checkpoint, manifest, or recovery scan) failed — as opposed to
// a constraint rejection or structural error from the store itself.
var ErrWAL = errors.New("store: write-ahead log failure")

// walError wraps a low-level failure so it matches ErrWAL.
func walError(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrWAL, fmt.Sprintf(format, args...))
}

// walRecord is one decoded log record: the seq, how it was committed,
// the pre-commit allocator watermark, and the logical write-set.
type walRecord struct {
	seq     uint64
	mode    recMode
	preMark int
	ops     []txnOp
}

// ---- encoding ----

func appendWALValue(b []byte, v value.V) []byte {
	switch {
	case v.IsConst():
		c := v.Const()
		b = append(b, 0)
		b = binary.AppendUvarint(b, uint64(len(c)))
		return append(b, c...)
	case v.IsNull():
		b = append(b, 1)
		return binary.AppendUvarint(b, uint64(v.Mark()))
	default: // nothing — never stored, but staged tuples may carry it
		return append(b, 2)
	}
}

func appendWALString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

const (
	walOpInsertTuple = 0
	walOpInsertRow   = 1
	walOpUpdate      = 2
	walOpDelete      = 3
)

func appendWALOp(b []byte, op txnOp) []byte {
	switch op.kind {
	case txnInsert:
		if op.t != nil {
			b = append(b, walOpInsertTuple)
			b = binary.AppendUvarint(b, uint64(len(op.t)))
			for _, v := range op.t {
				b = appendWALValue(b, v)
			}
			return b
		}
		b = append(b, walOpInsertRow)
		b = binary.AppendUvarint(b, uint64(len(op.row)))
		for _, c := range op.row {
			b = appendWALString(b, c)
		}
		return b
	case txnUpdate:
		b = append(b, walOpUpdate)
		b = binary.AppendUvarint(b, uint64(op.ti))
		b = binary.AppendUvarint(b, uint64(op.a))
		return appendWALValue(b, op.v)
	default:
		b = append(b, walOpDelete)
		return binary.AppendUvarint(b, uint64(op.ti))
	}
}

// encodeWALRecord renders one framed record: length, CRC, payload.

func encodeWALRecord(seq uint64, mode recMode, preMark int, ops []txnOp) []byte {
	payload := make([]byte, 0, 16+16*len(ops))
	payload = binary.AppendUvarint(payload, seq)
	payload = append(payload, byte(mode))
	payload = binary.AppendUvarint(payload, uint64(preMark))
	payload = binary.AppendUvarint(payload, uint64(len(ops)))
	for _, op := range ops {
		payload = appendWALOp(payload, op)
	}
	rec := make([]byte, walFrameSize, walFrameSize+len(payload))
	binary.LittleEndian.PutUint32(rec[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(rec[4:8], crc32.Checksum(payload, crcTable))
	return append(rec, payload...)
}

// ---- decoding ----

// walReader cursors over a CRC-verified payload with bounds checks on
// every read, so a malformed payload yields an error, never a panic.
type walReader struct {
	b   []byte
	off int
}

func (r *walReader) uvarint() (uint64, error) {
	n, k := binary.Uvarint(r.b[r.off:])
	if k <= 0 {
		return 0, fmt.Errorf("truncated or overlong uvarint at payload offset %d", r.off)
	}
	r.off += k
	return n, nil
}

func (r *walReader) count(what string) (int, error) {
	n, err := r.uvarint()
	if err != nil {
		return 0, err
	}
	// A count can never exceed one byte of remaining payload per element;
	// a length-lying record fails here instead of sizing an allocation.
	if n > uint64(len(r.b)-r.off) {
		return 0, fmt.Errorf("%s count %d exceeds remaining payload %d", what, n, len(r.b)-r.off)
	}
	return int(n), nil
}

func (r *walReader) byte() (byte, error) {
	if r.off >= len(r.b) {
		return 0, fmt.Errorf("truncated payload at offset %d", r.off)
	}
	c := r.b[r.off]
	r.off++
	return c, nil
}

func (r *walReader) str() (string, error) {
	n, err := r.uvarint()
	if err != nil {
		return "", err
	}
	if n > uint64(len(r.b)-r.off) {
		return "", fmt.Errorf("string length %d exceeds remaining payload %d", n, len(r.b)-r.off)
	}
	s := string(r.b[r.off : r.off+int(n)])
	r.off += int(n)
	return s, nil
}

func (r *walReader) value() (value.V, error) {
	tag, err := r.byte()
	if err != nil {
		return value.V{}, err
	}
	switch tag {
	case 0:
		c, err := r.str()
		if err != nil {
			return value.V{}, err
		}
		return value.NewConst(c), nil
	case 1:
		m, err := r.uvarint()
		if err != nil {
			return value.V{}, err
		}
		// MaxInt32, not 1<<31: the bound must survive int(m) on 32-bit
		// platforms without going negative.
		if m < 1 || m > math.MaxInt32 {
			return value.V{}, fmt.Errorf("null mark %d out of range", m)
		}
		return value.NewNull(int(m)), nil
	case 2:
		return value.NewNothing(), nil
	default:
		return value.V{}, fmt.Errorf("unknown value tag %d", tag)
	}
}

func (r *walReader) op() (txnOp, error) {
	kind, err := r.byte()
	if err != nil {
		return txnOp{}, err
	}
	switch kind {
	case walOpInsertTuple:
		n, err := r.count("tuple arity")
		if err != nil {
			return txnOp{}, err
		}
		if n > schema.MaxAttrs {
			return txnOp{}, fmt.Errorf("tuple arity %d exceeds the schema limit %d", n, schema.MaxAttrs)
		}
		t := make([]value.V, n)
		for i := range t {
			if t[i], err = r.value(); err != nil {
				return txnOp{}, err
			}
		}
		return txnOp{kind: txnInsert, t: t}, nil
	case walOpInsertRow:
		n, err := r.count("row arity")
		if err != nil {
			return txnOp{}, err
		}
		if n > schema.MaxAttrs {
			return txnOp{}, fmt.Errorf("row arity %d exceeds the schema limit %d", n, schema.MaxAttrs)
		}
		row := make([]string, n)
		for i := range row {
			if row[i], err = r.str(); err != nil {
				return txnOp{}, err
			}
		}
		return txnOp{kind: txnInsert, row: row}, nil
	case walOpUpdate:
		ti, err := r.uvarint()
		if err != nil {
			return txnOp{}, err
		}
		a, err := r.uvarint()
		if err != nil {
			return txnOp{}, err
		}
		if ti > math.MaxInt32 || a >= schema.MaxAttrs {
			return txnOp{}, fmt.Errorf("update target t%d/attr %d out of range", ti, a)
		}
		v, err := r.value()
		if err != nil {
			return txnOp{}, err
		}
		return txnOp{kind: txnUpdate, ti: int(ti), a: schema.Attr(a), v: v}, nil
	case walOpDelete:
		ti, err := r.uvarint()
		if err != nil {
			return txnOp{}, err
		}
		if ti > math.MaxInt32 {
			return txnOp{}, fmt.Errorf("delete target t%d out of range", ti)
		}
		return txnOp{kind: txnDelete, ti: int(ti)}, nil
	default:
		return txnOp{}, fmt.Errorf("unknown op kind %d", kind)
	}
}

// decodeWALPayload parses one CRC-verified payload into a record. It
// fails closed with a diagnostic on any malformed input and rejects
// trailing garbage, so a record either decodes completely or not at all
// — there is no half-applied parse.
func decodeWALPayload(p []byte) (walRecord, error) {
	r := &walReader{b: p}
	var rec walRecord
	seq, err := r.uvarint()
	if err != nil {
		return rec, err
	}
	if seq < 1 {
		return rec, fmt.Errorf("record seq 0 (seqs are contiguous from 1)")
	}
	rec.seq = seq
	m, err := r.byte()
	if err != nil {
		return rec, err
	}
	if m > uint8(recTxn) {
		return rec, fmt.Errorf("unknown record mode %d", m)
	}
	rec.mode = recMode(m)
	pre, err := r.uvarint()
	if err != nil {
		return rec, err
	}
	if pre < 1 || pre > math.MaxInt32 {
		return rec, fmt.Errorf("pre-commit watermark %d out of range", pre)
	}
	rec.preMark = int(pre)
	nops, err := r.count("op")
	if err != nil {
		return rec, err
	}
	if nops < 1 {
		return rec, fmt.Errorf("record with empty write-set")
	}
	rec.ops = make([]txnOp, nops)
	for i := range rec.ops {
		if rec.ops[i], err = r.op(); err != nil {
			return rec, fmt.Errorf("op %d: %v", i, err)
		}
	}
	if r.off != len(p) {
		return rec, fmt.Errorf("%d bytes of trailing garbage after the last op", len(p)-r.off)
	}
	return rec, nil
}

// decodeWALFrame reads the framed record starting at data[off]. It
// returns the record and the offset just past it. Errors distinguish
// nothing further for the caller: any failure means data[off:] is not a
// valid record — a torn tail when off is in the unsynced suffix of the
// active segment, corruption anywhere else.
func decodeWALFrame(data []byte, off int) (walRecord, int, error) {
	if len(data)-off < walFrameSize {
		return walRecord{}, 0, fmt.Errorf("short frame: %d bytes remain at offset %d", len(data)-off, off)
	}
	n := int(binary.LittleEndian.Uint32(data[off : off+4]))
	sum := binary.LittleEndian.Uint32(data[off+4 : off+8])
	if n == 0 || n > maxWALRecord {
		return walRecord{}, 0, fmt.Errorf("payload length %d out of range at offset %d", n, off)
	}
	if len(data)-off-walFrameSize < n {
		return walRecord{}, 0, fmt.Errorf("payload truncated: wants %d bytes, %d remain at offset %d",
			n, len(data)-off-walFrameSize, off)
	}
	payload := data[off+walFrameSize : off+walFrameSize+n]
	if got := crc32.Checksum(payload, crcTable); got != sum {
		return walRecord{}, 0, fmt.Errorf("checksum mismatch at offset %d (stored %08x, computed %08x)", off, sum, got)
	}
	rec, err := decodeWALPayload(payload)
	if err != nil {
		return walRecord{}, 0, fmt.Errorf("record at offset %d: %v", off, err)
	}
	return rec, off + walFrameSize + n, nil
}

// scanSegment parses a whole segment image. It returns the decoded
// records, the offset just past the last valid one, and — when the
// segment does not parse to its end — the first failure. The caller
// decides whether that failure is a legal torn tail (active segment) or
// fail-closed corruption (any fsync'd segment).
func scanSegment(data []byte) (recs []walRecord, end int, err error) {
	if len(data) < len(walMagic) || string(data[:len(walMagic)]) != walMagic {
		return nil, 0, fmt.Errorf("bad segment magic")
	}
	off := len(walMagic)
	for off < len(data) {
		rec, next, err := decodeWALFrame(data, off)
		if err != nil {
			return recs, off, err
		}
		recs = append(recs, rec)
		off = next
	}
	return recs, off, nil
}

// ---- segment files ----

func segName(firstSeq uint64) string {
	return fmt.Sprintf("%s%020d%s", segPrefix, firstSeq, segSuffix)
}

// parseSegName extracts the first-record seq a segment file is named by.
func parseSegName(name string) (uint64, bool) {
	if !strings.HasPrefix(name, segPrefix) || !strings.HasSuffix(name, segSuffix) {
		return 0, false
	}
	mid := strings.TrimSuffix(strings.TrimPrefix(name, segPrefix), segSuffix)
	n, err := strconv.ParseUint(mid, 10, 64)
	if err != nil || n < 1 {
		return 0, false
	}
	return n, true
}

func ckptName(seq uint64) string {
	return fmt.Sprintf("%s%020d%s", ckptPrefix, seq, ckptSuffix)
}

func parseCkptName(name string) (uint64, bool) {
	if !strings.HasPrefix(name, ckptPrefix) || !strings.HasSuffix(name, ckptSuffix) {
		return 0, false
	}
	n, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, ckptPrefix), ckptSuffix), 10, 64)
	if err != nil {
		return 0, false
	}
	return n, true
}

// listSegments returns the segment filenames in dir sorted by the seq
// they are named with (lexicographic order of the zero-padded names).
func listSegments(fs iox.FS, dir string) ([]string, error) {
	entries, err := fs.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var segs []string
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		if _, ok := parseSegName(e.Name()); ok {
			segs = append(segs, e.Name())
		}
	}
	sort.Strings(segs)
	return segs, nil
}

// ---- the segment writer ----

// walWriter appends framed records to the active segment, tracking the
// durable prefix (syncedOff/syncedSeq) so the crash exerciser can model
// a power failure as "everything past the synced offset is gone". All
// I/O goes through env.fs; env also supplies the transient-retry budget
// and the counters Health() reports. f is nil while the handle is
// degraded with no usable segment (every write path is gated first).
type walWriter struct {
	env          *ioEnv
	dir          string
	f            iox.File
	name         string // active segment filename
	size         int64
	nextSeq      uint64
	pending      int // records appended since the last fsync
	syncedOff    int64
	syncedSeq    uint64
	groupCommit  int   // fsync every N appends; <=1 means every append
	segmentBytes int64 // rotate once the active segment passes this
}

// newSegment creates (or truncates) the segment that will hold seq as
// its first record and makes it the active one. The whole creation is
// one transient-retry unit: each attempt opens a fresh fd and rewrites
// the header, so retrying after a failed fsync is safe here (unlike on
// a live appending fd, where it never is).
func (w *walWriter) newSegment(seq uint64) error {
	name := segName(seq)
	path := filepath.Join(w.dir, name)
	var f iox.File
	err := w.env.retry(func() error {
		var err error
		f, err = w.env.fs.Create(path)
		if err != nil {
			return err
		}
		ok := false
		defer func() {
			if !ok {
				f.Close()             // errcheck:ok failed attempt; the fd is abandoned either way
				w.env.fs.Remove(path) // errcheck:ok best-effort cleanup; a leftover is truncated on the next attempt
			}
		}()
		if _, err := f.Write([]byte(walMagic)); err != nil {
			return err
		}
		if err := f.Sync(); err != nil {
			return err
		}
		if err := w.env.fs.SyncDir(w.dir); err != nil {
			return err
		}
		ok = true
		return nil
	})
	if err != nil {
		return err
	}
	w.f, w.name, w.size = f, name, int64(len(walMagic))
	w.syncedOff = w.size
	w.pending = 0
	return nil
}

// append logs one commit and returns its seq. The record is written
// immediately; whether it is fsync'd now or with the group depends on
// the group-commit setting. Rotation is the caller's job (needsRotation
// / rotate) because a rotation failure after the record is durable must
// not be reported as the commit's failure.
func (w *walWriter) append(mode recMode, preMark int, ops []txnOp) (uint64, error) {
	if w.f == nil {
		return 0, errors.New("no active segment")
	}
	seq := w.nextSeq
	rec := encodeWALRecord(seq, mode, preMark, ops)
	if _, err := w.f.Write(rec); err != nil {
		return 0, err
	}
	w.nextSeq++
	w.size += int64(len(rec))
	w.pending++
	if w.groupCommit <= 1 || w.pending >= w.groupCommit {
		if err := w.sync(); err != nil {
			return 0, err
		}
	}
	return seq, nil
}

// needsRotation reports that the active segment passed its size bound.
func (w *walWriter) needsRotation() bool { return w.f != nil && w.size >= w.segmentBytes }

// rotate starts the next segment. The caller has already fsync'd the
// active segment (the seal is ack-relevant; rotation is not), so every
// byte outside the new active segment is durable.
func (w *walWriter) rotate() error {
	// Close error after a successful fsync cannot un-sync the sealed
	// bytes, so it is durability-benign and deliberately dropped.
	w.f.Close() // errcheck:ok close-after-fsync cannot lose synced data
	w.f = nil
	return w.newSegment(w.nextSeq)
}

// sync makes every appended record durable and advances the durable
// prefix markers. A failure here is fsyncgate territory: the caller
// must degrade the handle and abandon the fd, never retry the fsync.
func (w *walWriter) sync() error {
	if w.f == nil {
		return errors.New("no active segment")
	}
	if err := w.f.Sync(); err != nil {
		return err
	}
	w.env.syncs++
	w.syncedOff = w.size
	if w.nextSeq > 1 {
		w.syncedSeq = w.nextSeq - 1
	}
	w.pending = 0
	return nil
}

func (w *walWriter) close() error {
	if w.f == nil {
		return nil
	}
	err := w.sync()
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	w.f = nil
	return err
}

// ---- the manifest ----

// walManifest names what recovery needs to interpret the log: the
// checkpoint file and the last seq it subsumes. Every manifest also
// carries the lines "maintenance incremental" and "xrules false", the
// one engine and X-rules setting a log is written under; they are kept
// byte for byte so that directories stay readable across versions, and
// a manifest naming anything else is refused.
type walManifest struct {
	checkpoint string
	ckptSeq    uint64
}

func (m walManifest) render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "fdwal 1\n")
	fmt.Fprintf(&b, "maintenance incremental\n")
	fmt.Fprintf(&b, "xrules false\n")
	fmt.Fprintf(&b, "checkpoint %s\n", m.checkpoint)
	fmt.Fprintf(&b, "ckptseq %d\n", m.ckptSeq)
	return b.String()
}

func parseManifest(data string) (walManifest, error) {
	var m walManifest
	lines := strings.Split(strings.TrimSpace(data), "\n")
	if len(lines) == 0 || strings.TrimSpace(lines[0]) != "fdwal 1" {
		return m, fmt.Errorf("manifest does not start with \"fdwal 1\"")
	}
	seen := map[string]bool{}
	for _, line := range lines[1:] {
		fields := strings.Fields(line)
		if len(fields) != 2 {
			return m, fmt.Errorf("manifest line %q wants \"key value\"", line)
		}
		key, val := fields[0], fields[1]
		if seen[key] {
			return m, fmt.Errorf("manifest repeats %q", key)
		}
		seen[key] = true
		switch key {
		case "maintenance":
			if val != "incremental" {
				return m, fmt.Errorf("manifest maintenance %q: only incremental logs can be replayed", val)
			}
		case "xrules":
			if val != "false" {
				return m, fmt.Errorf("manifest xrules %q: only logs written without X-rules can be replayed", val)
			}
		case "checkpoint":
			if _, ok := parseCkptName(val); !ok {
				return m, fmt.Errorf("manifest checkpoint %q is not a checkpoint filename", val)
			}
			m.checkpoint = val
		case "ckptseq":
			n, err := strconv.ParseUint(val, 10, 64)
			if err != nil {
				return m, fmt.Errorf("manifest ckptseq %q is not a seq", val)
			}
			m.ckptSeq = n
		default:
			return m, fmt.Errorf("manifest has unknown key %q", key)
		}
	}
	for _, want := range []string{"maintenance", "xrules", "checkpoint", "ckptseq"} {
		if !seen[want] {
			return m, fmt.Errorf("manifest is missing %q", want)
		}
	}
	return m, nil
}

// writeManifest replaces dir's manifest atomically: temp file, fsync,
// rename over MANIFEST, fsync the directory. The whole replacement is
// one transient-retry unit — every attempt rewrites the temp file
// through a fresh fd, re-renames, and re-syncs the directory, so no
// attempt ever retries a failed fsync on a live fd.
func writeManifest(env *ioEnv, dir string, m walManifest) error {
	tmp := filepath.Join(dir, manifestName+".tmp")
	rendered := []byte(m.render())
	return env.retry(func() error {
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
		if _, err := f.Write(rendered); err != nil {
			return err
		}
		if err := f.Sync(); err != nil {
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		if err := env.fs.Rename(tmp, filepath.Join(dir, manifestName)); err != nil {
			return err
		}
		ok = true
		return env.fs.SyncDir(dir)
	})
}

package store

// wal_test.go covers the durable store's moving parts in isolation —
// record round-trips, fresh open, reopen-and-replay, segment rotation,
// pruning, torn-tail truncation, engine pinning, poisoning — plus the
// differential test pinning persist.go as the checkpoint oracle:
// Save/Load round-trips must equal checkpoint-plus-empty-log recovery
// (state, stats, allocator watermark). crash_test.go owns the
// randomized crash-point exerciser.

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"fdnull/internal/iox"
	"fdnull/internal/relation"
	"fdnull/internal/value"
	"fdnull/internal/workload"
)

func employeeDurableOpts() DurableOptions {
	ws := histSchemes()[0]
	return DurableOptions{
		Scheme: ws.s,
		FDs:    ws.fds,
	}
}

func TestWALRecordRoundTrip(t *testing.T) {
	ops := []txnOp{
		{kind: txnInsert, t: relation.Tuple{value.NewConst("e1"), value.NewNull(3), value.NewConst("d1"), value.NewNothing()}},
		{kind: txnInsert, row: []string{"e2", "-", "-7", "ct1"}},
		{kind: txnUpdate, ti: 4, a: 2, v: value.NewConst("d2")},
		{kind: txnUpdate, ti: 0, a: 1, v: value.NewNull(9)},
		{kind: txnDelete, ti: 12},
	}
	frame := encodeWALRecord(42, recTxn, 7, ops)
	rec, end, err := decodeWALFrame(frame, 0)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if end != len(frame) {
		t.Fatalf("decode consumed %d of %d bytes", end, len(frame))
	}
	if rec.seq != 42 || rec.mode != recTxn || rec.preMark != 7 {
		t.Fatalf("header mismatch: %+v", rec)
	}
	if !reflect.DeepEqual(rec.ops, ops) {
		t.Fatalf("ops did not round-trip:\n in: %#v\nout: %#v", ops, rec.ops)
	}
}

func TestWALFrameFailsClosed(t *testing.T) {
	good := encodeWALRecord(1, recPerOp, 1, []txnOp{{kind: txnDelete, ti: 3}})
	cases := map[string][]byte{
		"empty":     {},
		"short":     good[:5],
		"truncated": good[:len(good)-2],
		"bitflip":   append(append([]byte{}, good[:12]...), good[12]^0x40),
	}
	// Length-lying: frame claims a huge payload.
	lying := append([]byte{}, good...)
	lying[0], lying[1], lying[2], lying[3] = 0xff, 0xff, 0xff, 0x7f
	cases["length-lying"] = lying
	// Values that would overflow int on a 32-bit platform must be
	// rejected at the bound, not truncated by the cast.
	cases["watermark-overflow"] = encodeWALRecord(1, recPerOp, 1<<31, []txnOp{{kind: txnDelete, ti: 3}})
	cases["target-overflow"] = encodeWALRecord(1, recPerOp, 1, []txnOp{{kind: txnDelete, ti: 1 << 31}})
	// Valid CRC over a payload whose internal counts lie.
	for name, data := range cases {
		if _, _, err := decodeWALFrame(data, 0); err == nil {
			t.Errorf("%s: decode accepted invalid frame", name)
		}
	}
}

func TestOpenDurableFreshAndReopen(t *testing.T) {
	for _, maint := range bothEngines {
		t.Run(maint.String(), func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "wal")
			d, err := OpenDurable(dir, employeeDurableOpts())
			if err != nil {
				t.Fatalf("fresh open: %v", err)
			}
			maint.on(d)
			if err := d.InsertRow("e1", "s1", "d1", "ct1"); err != nil {
				t.Fatalf("insert: %v", err)
			}
			if err := d.InsertRow("e2", "-", "d1", "-"); err != nil {
				t.Fatalf("insert: %v", err)
			}
			tx := d.Begin()
			if err := tx.InsertRow("e3", "s3", "d2", "-"); err != nil {
				t.Fatalf("stage: %v", err)
			}
			if err := tx.Update(0, 1, value.NewConst("s2")); err != nil {
				t.Fatalf("stage: %v", err)
			}
			if err := tx.Commit(); err != nil {
				t.Fatalf("commit: %v", err)
			}
			if err := d.Delete(1); err != nil {
				t.Fatalf("delete: %v", err)
			}
			want := d.Snapshot()
			wantMark := d.rel.NextMark()
			if err := d.Close(); err != nil {
				t.Fatalf("close: %v", err)
			}

			re, err := OpenDurable(dir, DurableOptions{})
			if err != nil {
				t.Fatalf("reopen: %v", err)
			}
			defer re.Close()
			if !relation.Equal(re.Snapshot(), want) {
				t.Fatalf("recovered state diverged:\nwant:\n%s\ngot:\n%s", want, re.Snapshot())
			}
			if got := re.rel.NextMark(); got != wantMark {
				t.Fatalf("recovered watermark %d, want %d", got, wantMark)
			}
			if !re.CheckWeak() {
				t.Fatal("recovered store violates the weak-convention invariant")
			}
			// The recovered store keeps working durably.
			if err := re.InsertRow("e4", "s4", "d2", "-"); err != nil {
				t.Fatalf("post-recovery insert: %v", err)
			}
		})
	}
}

// wideKeyScheme is the KV serving shape with a 200k-value key domain: a
// domain is one line of a checkpoint, and this one is ~1.5 MB of it.
func wideKeyScheme() histScheme {
	s, fds, _ := workload.KV(200_000)
	return histScheme{"widekey", s, fds}
}

// TestCheckpointWideDomainReopens: a store must be able to reopen the
// checkpoint it wrote, however long the domain line is (relio.Parse
// used to refuse lines past 1 MiB, i.e. key domains past ~130k values).
func TestCheckpointWideDomainReopens(t *testing.T) {
	ws := wideKeyScheme()
	dir := filepath.Join(t.TempDir(), "wal")
	d, err := OpenDurable(dir, DurableOptions{Scheme: ws.s, FDs: ws.fds})
	if err != nil {
		t.Fatalf("fresh open: %v", err)
	}
	for _, row := range [][]string{{"k1", "a1", "-"}, {"k131072", "a3", "b3"}, {"k200000", "-", "b2"}} {
		if err := d.InsertRow(row...); err != nil {
			t.Fatalf("insert %v: %v", row, err)
		}
	}
	if err := d.Checkpoint(); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	want := d.Snapshot()
	if err := d.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	re, err := OpenDurable(dir, DurableOptions{})
	if err != nil {
		t.Fatalf("reopen of the store's own checkpoint: %v", err)
	}
	defer re.Close()
	if !relation.Equal(re.Snapshot(), want) {
		t.Fatalf("recovered state diverged:\nwant:\n%s\ngot:\n%s", want, re.Snapshot())
	}
}

func TestOpenDurableFreshNeedsScheme(t *testing.T) {
	_, err := OpenDurable(filepath.Join(t.TempDir(), "w"), DurableOptions{})
	if err == nil || !errors.Is(err, ErrWAL) {
		t.Fatalf("fresh open without a scheme: got %v, want ErrWAL", err)
	}
}

// TestOpenDurableEnginePinned: a manifest pins the one engine a log is
// written under. The manifest a store writes is byte for byte what
// earlier versions wrote, and a directory carrying those bytes reopens
// to the same state; a manifest naming the recheck engine, X-rules or an
// unknown engine is refused with ErrWAL and the directory is left as it
// was.
func TestOpenDurableEnginePinned(t *testing.T) {
	for _, tc := range []struct {
		name, maintenance, xrules string
		ok                        bool
	}{
		{"written bytes", "incremental", "false", true},
		{"maintenance recheck", "recheck", "false", false},
		{"xrules true", "incremental", "true", false},
		{"unknown engine", "naive", "false", false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "wal")
			d, err := OpenDurable(dir, employeeDurableOpts())
			if err != nil {
				t.Fatal(err)
			}
			if err := d.InsertRow("e1", "s1", "d1", "ct1"); err != nil {
				t.Fatal(err)
			}
			if err := d.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			// A record after the checkpoint, so reopen also exercises replay.
			if err := d.InsertRow("e2", "-", "d2", "-"); err != nil {
				t.Fatal(err)
			}
			want := d.Snapshot()
			if err := d.Close(); err != nil {
				t.Fatal(err)
			}
			written := "fdwal 1\nmaintenance incremental\nxrules false\ncheckpoint " + ckptName(1) + "\nckptseq 1\n"
			if got := readFileT(t, filepath.Join(dir, manifestName)); got != written {
				t.Fatalf("manifest bytes changed:\n%q\nwant\n%q", got, written)
			}
			manifest := fmt.Sprintf("fdwal 1\nmaintenance %s\nxrules %s\ncheckpoint %s\nckptseq 1\n", tc.maintenance, tc.xrules, ckptName(1))
			if err := os.WriteFile(filepath.Join(dir, manifestName), []byte(manifest), 0o644); err != nil {
				t.Fatal(err)
			}
			before := dirImage(t, dir)
			re, err := OpenDurable(dir, DurableOptions{})
			if !tc.ok {
				if err == nil || !errors.Is(err, ErrWAL) {
					t.Fatalf("reopen: got %v, want ErrWAL", err)
				}
				if after := dirImage(t, dir); !reflect.DeepEqual(after, before) {
					t.Fatal("a refused reopen changed the directory")
				}
				return
			}
			if err != nil {
				t.Fatalf("reopen: %v", err)
			}
			defer re.Close()
			if !relation.Equal(re.Snapshot(), want) {
				t.Fatalf("recovered state diverged:\nwant:\n%s\ngot:\n%s", want, re.Snapshot())
			}
		})
	}
}

// dirImage maps each file in dir to its contents.
func dirImage(t *testing.T, dir string) map[string]string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	img := map[string]string{}
	for _, e := range entries {
		img[e.Name()] = readFileT(t, filepath.Join(dir, e.Name()))
	}
	return img
}

func TestWALRotationAndPruning(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "wal")
	opts := employeeDurableOpts()
	opts.SegmentBytes = 96 // force frequent rotation
	d, err := OpenDurable(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	emp := opts.Scheme
	for i := 0; i < 12; i++ {
		row := []string{emp.Domain(0).Values[i%12], "-", emp.Domain(2).Values[i%5], "-"}
		if err := d.InsertRow(row...); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	segs, err := listSegments(iox.OS, dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 3 {
		t.Fatalf("expected several segments at SegmentBytes=96, got %v", segs)
	}
	if err := d.Checkpoint(); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	pruned, err := listSegments(iox.OS, dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(pruned) >= len(segs) {
		t.Fatalf("checkpoint pruned nothing: %d segments before, %d after", len(segs), len(pruned))
	}
	want := d.Snapshot()
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := OpenDurable(dir, DurableOptions{SegmentBytes: 96})
	if err != nil {
		t.Fatalf("reopen after prune: %v", err)
	}
	defer re.Close()
	if !relation.Equal(re.Snapshot(), want) {
		t.Fatalf("recovered state diverged after pruning:\nwant:\n%s\ngot:\n%s", want, re.Snapshot())
	}
}

func TestWALTornTailTruncated(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "wal")
	opts := employeeDurableOpts()
	d, err := OpenDurable(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.InsertRow("e1", "s1", "d1", "ct1"); err != nil {
		t.Fatal(err)
	}
	want := d.Snapshot()
	if err := d.InsertRow("e2", "s2", "d2", "ct2"); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	// Tear the last record: drop its final 3 bytes.
	segs, err := listSegments(iox.OS, dir)
	if err != nil || len(segs) != 1 {
		t.Fatalf("segments: %v (%v)", segs, err)
	}
	path := filepath.Join(dir, segs[0])
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, info.Size()-3); err != nil {
		t.Fatal(err)
	}
	re, err := OpenDurable(dir, DurableOptions{})
	if err != nil {
		t.Fatalf("reopen over a torn tail: %v", err)
	}
	if !relation.Equal(re.Snapshot(), want) {
		t.Fatalf("torn-tail recovery diverged:\nwant:\n%s\ngot:\n%s", want, re.Snapshot())
	}
	// The torn bytes are gone from disk and appending resumes cleanly.
	if err := re.InsertRow("e3", "s3", "d1", "ct1"); err != nil {
		t.Fatalf("append after truncation: %v", err)
	}
	want2 := re.Snapshot()
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}
	re2, err := OpenDurable(dir, DurableOptions{})
	if err != nil {
		t.Fatalf("third open: %v", err)
	}
	defer re2.Close()
	if !relation.Equal(re2.Snapshot(), want2) {
		t.Fatal("state diverged after appending over a truncated tail")
	}
}

func TestWALCorruptSealedSegmentFailsClosed(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "wal")
	opts := employeeDurableOpts()
	opts.SegmentBytes = 96
	opts.RetainSegments = true
	d, err := OpenDurable(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		row := []string{opts.Scheme.Domain(0).Values[i%12], "-", opts.Scheme.Domain(2).Values[i%5], "-"}
		if err := d.InsertRow(row...); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := listSegments(iox.OS, dir)
	if err != nil || len(segs) < 2 {
		t.Fatalf("want >=2 segments, got %v (%v)", segs, err)
	}
	// Flip one byte inside the FIRST (sealed) segment's records.
	path := filepath.Join(dir, segs[0])
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(walMagic)+walFrameSize+2] ^= 0x01
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = OpenDurable(dir, DurableOptions{SegmentBytes: 96})
	if err == nil || !errors.Is(err, ErrWAL) {
		t.Fatalf("corrupt sealed segment: got %v, want fail-closed ErrWAL", err)
	}
}

func TestDurablePoisonsOnWALFailure(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "wal")
	opts := employeeDurableOpts()
	d, err := OpenDurable(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.InsertRow("e1", "s1", "d1", "ct1"); err != nil {
		t.Fatal(err)
	}
	// Yank the log file out from under the writer.
	d.wal.w.f.Close()
	err = d.InsertRow("e2", "s2", "d2", "ct2")
	if err == nil || !errors.Is(err, ErrWAL) {
		t.Fatalf("append to a closed log: got %v, want ErrWAL", err)
	}
	if d.Err() == nil {
		t.Fatal("handle not poisoned after WAL failure")
	}
	// Every later mutation reports the same poisoning error without
	// touching state.
	n := d.Len()
	if err2 := d.InsertRow("e3", "s3", "d1", "ct1"); !errors.Is(err2, ErrWAL) {
		t.Fatalf("poisoned insert: got %v", err2)
	}
	if d.Len() != n {
		t.Fatal("poisoned handle still mutates state")
	}
	if err := d.Checkpoint(); !errors.Is(err, ErrWAL) {
		t.Fatalf("poisoned checkpoint: got %v", err)
	}
}

// TestAutoCheckpointFailureDoesNotFailCommit: once a commit is
// appended and fsync'd, a failure in the auto-checkpoint it happened to
// trigger is NOT that commit's error — logRecord returns nil, the
// poisoning is reported by Err() and by every later mutation, and the
// commit survives recovery.
func TestAutoCheckpointFailureDoesNotFailCommit(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "wal")
	opts := employeeDurableOpts()
	opts.CheckpointEvery = 2
	d, err := OpenDurable(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.InsertRow("e1", "s1", "d1", "ct1"); err != nil {
		t.Fatal(err)
	}
	// Break checkpointing only: the segment file stays open and writable,
	// but writeCheckpoint's temp file lands in a directory that is gone.
	d.wal.dir = filepath.Join(dir, "missing")
	if err := d.InsertRow("e2", "s2", "d2", "ct2"); err != nil {
		t.Fatalf("durably appended commit reported failure because its auto-checkpoint failed: %v", err)
	}
	if d.Err() == nil {
		t.Fatal("handle not poisoned after the checkpoint failure")
	}
	if err := d.InsertRow("e3", "s3", "d1", "ct1"); !errors.Is(err, ErrWAL) {
		t.Fatalf("mutation after poisoning: got %v, want ErrWAL", err)
	}
	d.Close()
	// Both commits are on disk; recovery proves the second one survived.
	re, err := OpenDurable(dir, DurableOptions{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer re.Close()
	if got := re.Len(); got != 2 {
		t.Fatalf("recovered %d tuples, want 2 (the checkpoint-triggering commit was durable)", got)
	}
}

// TestSaveLoadEqualsCheckpointRecovery pins persist.go as the
// checkpoint oracle: for the same committed state, (a) a Save/Load
// round-trip and (b) checkpoint-plus-empty-log recovery must agree on
// the instance, the allocator watermark, and the Stats counters — and
// the checkpoint file itself must be byte-identical to Save's output.
func TestSaveLoadEqualsCheckpointRecovery(t *testing.T) {
	for _, maint := range bothEngines {
		t.Run(maint.String(), func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "wal")
			d, err := OpenDurable(dir, employeeDurableOpts())
			if err != nil {
				t.Fatal(err)
			}
			maint.on(d)
			seed := [][]string{
				{"e1", "s1", "d1", "-"},
				{"e2", "-", "d1", "-"},
				{"e3", "-2", "d2", "ct1"},
				{"e4", "s4", "-", "ct2"},
			}
			for _, row := range seed {
				if err := d.InsertRow(row...); err != nil {
					t.Fatalf("insert %v: %v", row, err)
				}
			}
			if err := d.Update(1, 1, value.NewConst("s5")); err != nil {
				t.Fatalf("update: %v", err)
			}
			// Advance the allocator past its live marks so the watermark
			// comparison is not vacuous.
			d.FreshNull()
			d.FreshNull()
			if err := d.Delete(2); err != nil {
				t.Fatalf("delete: %v", err)
			}

			var saved bytes.Buffer
			if err := d.Save(&saved); err != nil {
				t.Fatalf("save: %v", err)
			}
			if err := d.Checkpoint(); err != nil {
				t.Fatalf("checkpoint: %v", err)
			}
			if err := d.Close(); err != nil {
				t.Fatal(err)
			}

			// The checkpoint file IS a Save file.
			m, err := parseManifest(readFileT(t, filepath.Join(dir, manifestName)))
			if err != nil {
				t.Fatalf("manifest: %v", err)
			}
			ckpt := readFileT(t, filepath.Join(dir, m.checkpoint))
			if ckpt != saved.String() {
				t.Fatalf("checkpoint file diverged from Save output:\nsave:\n%s\ncheckpoint:\n%s", saved.String(), ckpt)
			}

			loaded, err := Load(strings.NewReader(saved.String()))
			if err != nil {
				t.Fatalf("load: %v", err)
			}
			re, err := OpenDurable(dir, DurableOptions{})
			if err != nil {
				t.Fatalf("recover: %v", err)
			}
			defer re.Close()
			rec := re
			if !relation.Equal(loaded.Snapshot(), rec.Snapshot()) {
				t.Fatalf("Load and recovery diverged:\nload:\n%s\nrecovery:\n%s", loaded.Snapshot(), rec.Snapshot())
			}
			if lm, rm := loaded.rel.NextMark(), rec.rel.NextMark(); lm != rm {
				t.Fatalf("watermarks diverged: load=%d recovery=%d", lm, rm)
			}
			li, lu, ld, lr := loaded.Stats()
			ri, ru, rd, rr := rec.Stats()
			if li != ri || lu != ru || ld != rd || lr != rr {
				t.Fatalf("stats diverged: load=(%d,%d,%d,%d) recovery=(%d,%d,%d,%d)",
					li, lu, ld, lr, ri, ru, rd, rr)
			}
			if !rec.CheckWeak() || !loaded.CheckWeak() {
				t.Fatal("recovered or loaded store violates the weak invariant")
			}
		})
	}
}

func readFileT(t *testing.T, path string) string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read %s: %v", path, err)
	}
	return string(b)
}

func TestDurableConcurrentBasics(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "wal")
	opts := employeeDurableOpts()
	opts.GroupCommit = 8
	dc, err := OpenDurable(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	c := dc
	if err := c.InsertRow("e1", "s1", "d1", "-"); err != nil {
		t.Fatal(err)
	}
	// First-committer-wins still holds on a durable store.
	t1, t2 := c.Begin(), c.Begin()
	if err := t1.InsertRow("e2", "s2", "d1", "-"); err != nil {
		t.Fatal(err)
	}
	if err := t2.InsertRow("e3", "s3", "d2", "-"); err != nil {
		t.Fatal(err)
	}
	if err := t1.Commit(); err != nil {
		t.Fatalf("first commit: %v", err)
	}
	if err := t2.Commit(); !errors.Is(err, ErrTxnConflict) {
		t.Fatalf("second commit: got %v, want ErrTxnConflict", err)
	}
	if err := dc.Checkpoint(); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	if err := c.InsertRow("e3", "s3", "d2", "-"); err != nil {
		t.Fatal(err)
	}
	snap := c.View()
	if err := dc.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := OpenDurable(dir, DurableOptions{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer re.Close()
	if !relation.Equal(re.View().Materialize(), snap.Materialize()) {
		t.Fatal("concurrent durable recovery diverged")
	}
}

// TestDurableConcurrentCheckpointRace hammers explicit Checkpoint calls
// against writers whose commits keep firing auto-checkpoints
// (CheckpointEvery). Overlapping checkpoints used to interleave writes
// to the same MANIFEST.tmp and could repoint the manifest backwards
// past segments a newer checkpoint had already pruned, making reopen
// fail with a log gap; checkpoints are now serialized by the in-flight
// flag. Run under -race.
func TestDurableConcurrentCheckpointRace(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "wal")
	opts := employeeDurableOpts()
	opts.CheckpointEvery = 3
	opts.GroupCommit = 4
	opts.SegmentBytes = 256 // frequent rotation so pruning has segments to eat
	dc, err := OpenDurable(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	c := dc
	emp := opts.Scheme
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				k := g*30 + i
				row := []string{
					emp.Domain(0).Values[k%len(emp.Domain(0).Values)], "-",
					emp.Domain(2).Values[k%len(emp.Domain(2).Values)], "-",
				}
				// Constraint rejections are expected (duplicate keys across
				// goroutines); only a WAL failure is a bug here.
				if err := c.InsertRow(row...); errors.Is(err, ErrWAL) {
					t.Errorf("writer %d: %v", g, err)
					return
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 15; i++ {
			if err := dc.Checkpoint(); err != nil {
				t.Errorf("explicit checkpoint %d: %v", i, err)
				return
			}
		}
	}()
	wg.Wait()
	if err := dc.Err(); err != nil {
		t.Fatalf("handle poisoned: %v", err)
	}
	if err := dc.Checkpoint(); err != nil {
		t.Fatalf("final checkpoint: %v", err)
	}
	snap := c.View()
	if err := dc.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := OpenDurable(dir, DurableOptions{})
	if err != nil {
		t.Fatalf("reopen after checkpoint storm: %v", err)
	}
	defer re.Close()
	if !relation.Equal(re.View().Materialize(), snap.Materialize()) {
		t.Fatal("recovery diverged after concurrent checkpoints")
	}
}

package store

// crash_test.go is the crash-point exerciser the tentpole promises: a
// HISTEX-style randomized history — per-op mutations, transaction
// blocks with savepoints and rollbacks, doomed operations, FreshNull
// allocator churn, explicit checkpoints and syncs — runs against a
// Durable store and an in-memory oracle in lockstep. After the history
// ends, the harness reconstructs the on-disk state AS OF every record
// boundary (choosing the manifest that was current then, truncating
// segments to the boundary) plus mid-record torn-tail variants, reopens
// each reconstruction, and asserts the recovered store is identical to
// the oracle's state at that prefix: instance (marks included),
// allocator watermark, the weak-convention invariant, and the recorded
// strong-convention verdict. The matrix runs twice: once on the
// incremental engine, and once with the durable store and the oracle
// both committing through the recheck oracle — recovery always replays
// on the incremental engine, so that leg also holds replay to the
// states the recheck engine logged.
//
// TestDurableConcurrentHistoryWithCrashes extends the transactional
// history exerciser across process lifetimes: first-committer-wins
// conflict rounds race two goroutines through one durable store (with
// a concurrent reader), interleaved with checkpoints,
// group-commit syncs, and simulated power failures — the active
// segment is truncated to its synced offset mid-run, the store is
// reopened, and the history continues from the recovered state.

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"fdnull/internal/iox"
	"fdnull/internal/relation"
	"fdnull/internal/schema"
	"fdnull/internal/value"
)

// crashSnapshot is the oracle's state right after one accepted commit.
type crashSnapshot struct {
	rel    *relation.Relation
	mark   int
	strong bool
}

func crashSnap(st *Store) crashSnapshot {
	return crashSnapshot{rel: st.Snapshot(), mark: st.rel.NextMark(), strong: st.CheckStrong()}
}

// crashManifest remembers the manifest bytes that were current once a
// checkpoint completed, keyed by the seq it subsumes.
type crashManifest struct {
	ckptSeq uint64
	data    string
}

// segRecord locates one record inside a segment image.
type segRecord struct {
	seq        uint64
	start, end int
}

type segImage struct {
	name     string
	firstSeq uint64
	data     []byte
	recs     []segRecord
}

// loadSegImages reads and indexes every segment in dir; the history has
// closed cleanly, so every segment must scan without error.
func loadSegImages(t *testing.T, dir string) []segImage {
	t.Helper()
	names, err := listSegments(iox.OS, dir)
	if err != nil {
		t.Fatalf("list segments: %v", err)
	}
	var images []segImage
	for _, name := range names {
		first, _ := parseSegName(name)
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatalf("read %s: %v", name, err)
		}
		img := segImage{name: name, firstSeq: first, data: data}
		off := len(walMagic)
		for off < len(data) {
			rec, next, err := decodeWALFrame(data, off)
			if err != nil {
				t.Fatalf("segment %s did not close cleanly: %v", name, err)
			}
			img.recs = append(img.recs, segRecord{seq: rec.seq, start: off, end: next})
			off = next
		}
		images = append(images, img)
	}
	return images
}

// buildCrashDir reconstructs the directory as it looked the instant
// after record k was written (and, with extra>0, with the first extra
// bytes of record k+1 torn onto the tail).
func buildCrashDir(t *testing.T, dst, src string, k uint64, extra int,
	manifests []crashManifest, images []segImage, ckpts map[string][]byte) {
	t.Helper()
	if err := os.MkdirAll(dst, 0o755); err != nil {
		t.Fatal(err)
	}
	// The manifest current at time k: the last checkpoint at or before k.
	m := manifests[0]
	for _, cand := range manifests {
		if cand.ckptSeq <= k {
			m = cand
		}
	}
	if err := os.WriteFile(filepath.Join(dst, manifestName), []byte(m.data), 0o644); err != nil {
		t.Fatal(err)
	}
	for name, data := range ckpts {
		seq, _ := parseCkptName(name)
		if seq <= k {
			if err := os.WriteFile(filepath.Join(dst, name), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, img := range images {
		if img.firstSeq > k+1 {
			continue // not yet created at time k
		}
		cut := len(walMagic)
		for _, rec := range img.recs {
			if rec.seq <= k {
				cut = rec.end
			} else if rec.seq == k+1 && extra > 0 {
				// Torn tail: the next record was mid-write when the power
				// died. Never a whole record — that would be seq k+1's
				// boundary, not k's.
				tear := rec.start + extra
				if tear >= rec.end {
					tear = rec.end - 1
				}
				cut = tear
			}
		}
		if err := os.WriteFile(filepath.Join(dst, img.name), img.data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// reopenAndCheck recovers dst and asserts it equals the oracle's state
// at prefix k.
func reopenAndCheck(t *testing.T, dst string, k uint64, extra int, snaps map[uint64]crashSnapshot) {
	t.Helper()
	want, ok := snaps[k]
	if !ok {
		t.Fatalf("no oracle snapshot for seq %d", k)
	}
	re, err := OpenDurable(dst, DurableOptions{RetainSegments: true})
	if err != nil {
		var dump string
		if entries, derr := os.ReadDir(dst); derr == nil {
			for _, e := range entries {
				if _, ok := parseCkptName(e.Name()); ok {
					dump += fmt.Sprintf("--- %s ---\n%s\n", e.Name(), readFileT(t, filepath.Join(dst, e.Name())))
				}
			}
		}
		t.Fatalf("crash point %d (torn %d bytes): reopen: %v\n%s", k, extra, err, dump)
	}
	defer re.Close()
	got := re
	if !relation.Equal(got.Snapshot(), want.rel) {
		t.Fatalf("crash point %d (torn %d bytes): recovered state != oracle prefix:\nrecovered:\n%s\noracle:\n%s",
			k, extra, got.Snapshot(), want.rel)
	}
	if got.rel.NextMark() != want.mark {
		t.Fatalf("crash point %d (torn %d bytes): watermark %d, oracle %d", k, extra, got.rel.NextMark(), want.mark)
	}
	if !got.CheckWeak() {
		t.Fatalf("crash point %d: recovered store violates the weak-convention invariant", k)
	}
	if got.CheckStrong() != want.strong {
		t.Fatalf("crash point %d: strong-convention verdict %v, oracle %v", k, got.CheckStrong(), want.strong)
	}
}

// runCrashHistory drives one randomized durable history, then proves
// recovery at every record boundary plus torn-tail variants.
func runCrashHistory(t *testing.T, ws histScheme, maint engine, seed int64, steps int) {
	rng := rand.New(rand.NewSource(seed))
	dir := filepath.Join(t.TempDir(), "wal")
	opts := DurableOptions{
		Scheme:         ws.s,
		FDs:            ws.fds,
		RetainSegments: true, // the harness rebuilds historical dirs
		SegmentBytes:   []int{64, 128, 256, 1 << 20}[rng.Intn(4)],
		GroupCommit:    []int{1, 2, 8}[rng.Intn(3)],
	}
	d, err := OpenDurable(dir, opts)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	maint.on(d)
	oracle := maint.on(New(ws.s, ws.fds, Options{}))
	snaps := map[uint64]crashSnapshot{0: crashSnap(oracle)}
	manifests := []crashManifest{{0, readFileT(t, filepath.Join(dir, manifestName))}}
	lastSeq := func() uint64 { return d.wal.w.nextSeq - 1 }
	record := func() {
		if _, ok := snaps[lastSeq()]; !ok {
			// Keyed by seq and written once: a later FreshNull may advance
			// the allocator without a record, and recovery legitimately
			// forgets that drift.
			snaps[lastSeq()] = crashSnap(oracle)
		}
	}

	randCell := func(a schema.Attr) string {
		dom := ws.s.Domain(a)
		switch rng.Intn(16) {
		case 0, 1:
			return "-"
		case 2, 3:
			return fmt.Sprintf("-%d", 1+rng.Intn(6))
		case 4:
			return "!" // doomed: both sides must reject, no record appended
		default:
			return dom.Values[rng.Intn(dom.Size())]
		}
	}
	randRow := func() []string {
		row := make([]string, ws.s.Arity())
		for a := range row {
			row[a] = randCell(schema.Attr(a))
		}
		return row
	}

	for step := 0; step < steps; step++ {
		// The durable store and the oracle share engine, history, and
		// allocator, so tuple order — and hence indices — is identical.
		switch k := rng.Intn(20); {
		case k < 7 || d.Len() == 0:
			row := randRow()
			errD := d.InsertRow(row...)
			errO := oracle.InsertRow(row...)
			assertAgreement(t, step, "insert", errD, errO, d, oracle)
		case k < 10:
			ti := rng.Intn(d.Len())
			a := schema.Attr(rng.Intn(ws.s.Arity()))
			var v value.V
			if rng.Intn(4) == 0 {
				vd, vo := d.FreshNull(), oracle.FreshNull()
				if !vd.Identical(vo) {
					t.Fatalf("step %d: allocators diverged: %s vs %s", step, vd, vo)
				}
				v = vd
			} else {
				dom := ws.s.Domain(a)
				v = value.NewConst(dom.Values[rng.Intn(dom.Size())])
			}
			errD := d.Update(ti, a, v)
			errO := oracle.Update(ti, a, v)
			assertAgreement(t, step, "update", errD, errO, d, oracle)
		case k < 12:
			ti := rng.Intn(d.Len())
			errD := d.Delete(ti)
			errO := oracle.Delete(ti)
			assertAgreement(t, step, "delete", errD, errO, d, oracle)
		case k < 16:
			// A transaction block with an occasional savepoint rollback.
			txD, txO := d.Begin(), oracle.Begin()
			nOps := 1 + rng.Intn(5)
			var spD, spO Savepoint
			saved := false
			for o := 0; o < nOps; o++ {
				switch j := rng.Intn(10); {
				case j < 6:
					row := randRow()
					eD, eO := txD.InsertRow(row...), txO.InsertRow(row...)
					if (eD == nil) != (eO == nil) {
						t.Fatalf("step %d: staging diverged: %v vs %v", step, eD, eO)
					}
				case j < 9:
					ti := rng.Intn(txD.Len() + 1) // may be just out of range: staging must agree on that too
					a := schema.Attr(rng.Intn(ws.s.Arity()))
					dom := ws.s.Domain(a)
					var v value.V
					if rng.Intn(4) == 0 {
						v = value.NewNull(1 + rng.Intn(8))
					} else {
						v = value.NewConst(dom.Values[rng.Intn(dom.Size())])
					}
					eD, eO := txD.Update(ti, a, v), txO.Update(ti, a, v)
					if (eD == nil) != (eO == nil) {
						t.Fatalf("step %d: staging diverged: %v vs %v", step, eD, eO)
					}
				default:
					if txD.Len() > 0 {
						ti := rng.Intn(txD.Len())
						eD, eO := txD.Delete(ti), txO.Delete(ti)
						if (eD == nil) != (eO == nil) {
							t.Fatalf("step %d: staging diverged: %v vs %v", step, eD, eO)
						}
					}
				}
				if !saved && rng.Intn(3) == 0 {
					spD, spO = txD.Save(), txO.Save()
					saved = true
				}
			}
			if saved && rng.Intn(3) == 0 {
				if err := txD.RollbackTo(spD); err != nil {
					t.Fatalf("step %d: rollbackto: %v", step, err)
				}
				if err := txO.RollbackTo(spO); err != nil {
					t.Fatalf("step %d: rollbackto: %v", step, err)
				}
			}
			if rng.Intn(6) == 0 {
				txD.Rollback()
				txO.Rollback()
			} else {
				errD, errO := txD.Commit(), txO.Commit()
				assertTxnCommitAgreement(t, step, errD, errO, d, oracle)
			}
		case k < 18:
			if err := d.Checkpoint(); err != nil {
				t.Fatalf("step %d: checkpoint: %v", step, err)
			}
			manifests = append(manifests, crashManifest{d.wal.ckptSeq, readFileT(t, filepath.Join(dir, manifestName))})
		default:
			if err := d.Sync(); err != nil {
				t.Fatalf("step %d: sync: %v", step, err)
			}
		}
		record()
	}
	end := lastSeq()
	if err := d.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	// Index the finished log, then kill the process at every record
	// boundary — and tear the next record mid-write — and prove recovery.
	images := loadSegImages(t, dir)
	ckpts := map[string][]byte{}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if _, ok := parseCkptName(e.Name()); ok {
			ckpts[e.Name()] = []byte(readFileT(t, filepath.Join(dir, e.Name())))
		}
	}
	recLen := map[uint64]int{}
	for _, img := range images {
		for _, rec := range img.recs {
			recLen[rec.seq] = rec.end - rec.start
		}
	}
	crashRoot := filepath.Join(t.TempDir(), "crash")
	n := 0
	for k := uint64(0); k <= end; k++ {
		extras := []int{0}
		if next, ok := recLen[k+1]; ok {
			// Mid-record torn tails: one byte of the next record, half of
			// it, and all but its last byte.
			extras = append(extras, 1, next/2, next-1)
		}
		for _, extra := range extras {
			dst := filepath.Join(crashRoot, fmt.Sprintf("k%d-e%d", k, extra))
			buildCrashDir(t, dst, dir, k, extra, manifests, images, ckpts)
			reopenAndCheck(t, dst, k, extra, snaps)
			if err := os.RemoveAll(dst); err != nil {
				t.Fatal(err)
			}
			n++
		}
	}
	if n <= int(end) {
		t.Fatalf("exercised %d crash points for %d records; torn variants missing", n, end)
	}
}

// TestCrashPointExerciser replays randomized durable histories and
// proves recovery at every record boundary plus torn tails, for both
// maintenance engines over several workload shapes and seeds (104
// histories in the full matrix, two of them over a key domain whose
// checkpoint line passes 1 MiB; `go test -short` runs a reduced matrix
// as the CI smoke).
func TestCrashPointExerciser(t *testing.T) {
	seeds := []int64{1, 2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 20260807}
	steps := 40
	schemes := append(histSchemes(), wideKeyScheme())
	if testing.Short() {
		seeds = seeds[:2]
		steps = 22
		schemes = schemes[:1]
	}
	for _, ws := range schemes {
		seeds := seeds
		if ws.name == "widekey" {
			// Every crash point rewrites and reparses ~1.5 MB checkpoints;
			// one seed per engine covers the long-line path.
			seeds = seeds[:1]
		}
		for _, maint := range bothEngines {
			for _, seed := range seeds {
				ws, maint, seed := ws, maint, seed
				t.Run(fmt.Sprintf("%s/%s/seed=%d", ws.name, maint, seed), func(t *testing.T) {
					t.Parallel()
					runCrashHistory(t, ws, maint, seed, steps)
				})
			}
		}
	}
}

// ---- the transactional exerciser, now with crash/reopen ops ----

// killDurableConcurrent simulates a power failure mid-run: the log file
// handle is abandoned without a final sync and the active segment loses
// everything past its synced offset. It returns the seq of the last
// record that survived.
func killDurableConcurrent(t *testing.T, dc *Store) uint64 {
	t.Helper()
	w := dc.wal.w
	synced, name, off := w.syncedSeq, w.name, w.syncedOff
	w.f.Close()
	if err := os.Truncate(filepath.Join(w.dir, name), off); err != nil {
		t.Fatalf("truncate to synced offset: %v", err)
	}
	return synced
}

// runDurableConcurrentHistory interleaves first-committer-wins conflict
// rounds (two goroutines racing to commit, plus a concurrent reader)
// with per-op writes, checkpoints, group-commit syncs, and simulated
// crashes followed by reopen — the recovered store must equal the
// oracle's state at the synced prefix, and the history then continues
// from it.
func runDurableConcurrentHistory(t *testing.T, ws histScheme, seed int64, rounds int) {
	rng := rand.New(rand.NewSource(seed))
	dir := filepath.Join(t.TempDir(), "wal")
	opts := DurableOptions{
		Scheme:       ws.s,
		FDs:          ws.fds,
		GroupCommit:  []int{1, 4}[rng.Intn(2)],
		SegmentBytes: 512,
	}
	dc, err := OpenDurable(dir, opts)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	oracle := New(ws.s, ws.fds, Options{})
	snaps := map[uint64]crashSnapshot{0: crashSnap(oracle)}
	lastSeq := func() uint64 { return dc.wal.w.nextSeq - 1 }
	record := func() {
		if _, ok := snaps[lastSeq()]; !ok {
			snaps[lastSeq()] = crashSnap(oracle)
		}
	}
	// adopt resets the oracle to the recovered state after a crash: same
	// tuple order (replay is deterministic) and same watermark, so
	// index-based lockstep mirroring keeps holding.
	adopt := func(st *Store) {
		oracle = New(ws.s, ws.fds, Options{})
		oracle.rel = st.Snapshot()
		oracle.rel.SetNextMark(st.rel.NextMark())
	}
	randRow := func() []string {
		row := make([]string, ws.s.Arity())
		for a := range row {
			dom := ws.s.Domain(schema.Attr(a))
			switch rng.Intn(12) {
			case 0:
				row[a] = "-"
			case 1:
				row[a] = "!"
			default:
				row[a] = dom.Values[rng.Intn(dom.Size())]
			}
		}
		return row
	}

	conflicts, wins, crashes := 0, 0, 0
	for round := 0; round < rounds; round++ {
		c := dc
		switch k := rng.Intn(10); {
		case k < 3 || c.Len() == 0:
			// Stats are not compared in this exerciser: losing racers and
			// staging failures bump the durable store's rejected counter
			// but are never mirrored onto the oracle.
			row := randRow()
			errD := c.InsertRow(row...)
			errO := oracle.InsertRow(row...)
			if (errD == nil) != (errO == nil) {
				t.Fatalf("round %d: insert verdicts diverged: %v vs %v", round, errD, errO)
			}
			if !relation.Equal(dc.Snapshot(), oracle.Snapshot()) {
				t.Fatalf("round %d: durable state diverged from the oracle after insert", round)
			}
		case k < 7:
			// Conflict round: two transactions begin against the same base,
			// stage racing write-sets in parallel (with a reader scanning
			// snapshots throughout), and race to commit. At most one wins.
			plans := [2][][]string{}
			for p := range plans {
				n := 1 + rng.Intn(3)
				for i := 0; i < n; i++ {
					plans[p] = append(plans[p], randRow())
				}
			}
			useSavepoint := rng.Intn(3) == 0
			txs := [2]*Txn{c.Begin(), c.Begin()}
			var wg, readerWg sync.WaitGroup
			var errs [2]error
			stop := make(chan struct{})
			readerWg.Add(1)
			go func() { // reader racing the committers
				defer readerWg.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					snap := c.View()
					for i := 0; i < snap.Len(); i++ {
						_ = snap.Tuple(i)
					}
				}
			}()
			for p := 0; p < 2; p++ {
				p := p
				wg.Add(1)
				go func() {
					defer wg.Done()
					tx := txs[p]
					sp := tx.Save()
					for _, row := range plans[p] {
						if err := tx.InsertRow(row...); err != nil {
							errs[p] = err
							tx.Rollback()
							return
						}
					}
					if useSavepoint && p == 0 && len(plans[p]) > 1 {
						// Roll the whole plan back and restage only its first row.
						if err := tx.RollbackTo(sp); err != nil {
							errs[p] = err
							tx.Rollback()
							return
						}
						if err := tx.InsertRow(plans[p][0]...); err != nil {
							errs[p] = err
							tx.Rollback()
							return
						}
					}
					errs[p] = tx.Commit()
				}()
			}
			wg.Wait()
			close(stop)
			readerWg.Wait()
			winner := -1
			for p, err := range errs {
				if err == nil {
					if winner >= 0 {
						t.Fatalf("round %d: both racing transactions committed", round)
					}
					winner = p
				} else if err == ErrTxnConflict {
					conflicts++
				}
			}
			if winner >= 0 {
				wins++
				// Mirror the winner's write-set onto the oracle.
				rows := plans[winner]
				if useSavepoint && winner == 0 && len(rows) > 1 {
					rows = rows[:1]
				}
				tx := oracle.Begin()
				for _, row := range rows {
					if err := tx.InsertRow(row...); err != nil {
						t.Fatalf("round %d: oracle staging: %v", round, err)
					}
				}
				if err := tx.Commit(); err != nil {
					t.Fatalf("round %d: winner committed but the oracle rejects the same write-set: %v", round, err)
				}
			}
			if !relation.Equal(dc.Snapshot(), oracle.Snapshot()) {
				t.Fatalf("round %d: durable state diverged from the oracle:\ndurable:\n%s\noracle:\n%s",
					round, dc.Snapshot(), oracle.Snapshot())
			}
		case k < 8:
			if err := dc.Checkpoint(); err != nil {
				t.Fatalf("round %d: checkpoint: %v", round, err)
			}
		case k < 9:
			if err := dc.Sync(); err != nil {
				t.Fatalf("round %d: sync: %v", round, err)
			}
		default:
			// Crash and reopen: committed-but-unsynced records are lost;
			// the recovered store must equal the oracle at the synced
			// prefix, and the history continues from there.
			crashes++
			synced := killDurableConcurrent(t, dc)
			re, err := OpenDurable(dir, DurableOptions{
				GroupCommit: opts.GroupCommit, SegmentBytes: opts.SegmentBytes,
			})
			if err != nil {
				t.Fatalf("round %d: reopen after crash: %v", round, err)
			}
			want, ok := snaps[synced]
			if !ok {
				t.Fatalf("round %d: no snapshot for synced seq %d", round, synced)
			}
			if !relation.Equal(re.Snapshot(), want.rel) {
				t.Fatalf("round %d: crash at synced seq %d: recovered != oracle prefix:\nrecovered:\n%s\noracle:\n%s",
					round, synced, re.Snapshot(), want.rel)
			}
			if re.rel.NextMark() != want.mark {
				t.Fatalf("round %d: recovered watermark %d, oracle %d", round, re.rel.NextMark(), want.mark)
			}
			dc = re
			adopt(re)
			// Seqs are not reused after a crash drops an unsynced suffix,
			// but the state they lead to changes; forget stale snapshots.
			snaps = map[uint64]crashSnapshot{lastSeq(): crashSnap(oracle)}
		}
		record()
		if !dc.CheckWeak() {
			t.Fatalf("round %d: weak-convention invariant broken", round)
		}
	}
	if err := dc.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if wins == 0 {
		t.Error("no conflict round produced a winner; widen the mix")
	}
	if crashes == 0 {
		t.Error("history never crashed; widen the mix")
	}
	t.Logf("rounds=%d wins=%d conflicts=%d crashes=%d", rounds, wins, conflicts, crashes)
}

// TestDurableConcurrentHistoryWithCrashes is the transactional history
// exerciser extended with crash/reopen ops: savepoints, rollbacks, and
// first-committer-wins conflicts interleave with simulated power
// failures. CI runs it under -race.
func TestDurableConcurrentHistoryWithCrashes(t *testing.T) {
	seeds := []int64{1, 2, 3, 7, 20260807}
	rounds := 60
	if testing.Short() {
		seeds = seeds[:2]
		rounds = 30
	}
	for _, seed := range seeds {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			runDurableConcurrentHistory(t, histSchemes()[0], seed, rounds)
		})
	}
}

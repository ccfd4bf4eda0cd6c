package store

// handle_test.go pins the contract of the one handle every store is
// reached through: *Concurrent, in memory (NewConcurrent) or durable
// (OpenDurable), exposes the same durability surface.

import (
	"errors"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"fdnull/internal/iox"
	"fdnull/internal/relation"
	"fdnull/internal/value"
)

type handleState struct {
	rel                *relation.Relation
	mark               int
	ins, upd, del, rej int
}

func stateOf(c *Concurrent) handleState {
	h := handleState{rel: c.Snapshot().Materialize(), mark: c.NextMark()}
	h.ins, h.upd, h.del, h.rej = c.Stats()
	return h
}

func (a handleState) equal(b handleState) bool {
	return relation.Equal(a.rel, b.rel) && a.mark == b.mark &&
		a.ins == b.ins && a.upd == b.upd && a.del == b.del && a.rej == b.rej
}

// assertReopensTo reopens dir and requires the instance and allocator
// watermark of want (counters are per-process and restart at zero).
func assertReopensTo(t *testing.T, dir string, want handleState) {
	t.Helper()
	re, err := OpenDurable(dir, DurableOptions{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer re.Close() // errcheck:ok test teardown
	if got := stateOf(re); !relation.Equal(got.rel, want.rel) || got.mark != want.mark {
		t.Fatalf("reopen diverged:\nwant (mark %d)\n%s\ngot (mark %d)\n%s", want.mark, want.rel, got.mark, got.rel)
	}
}

type namedCall struct {
	name string
	fn   func() error
}

func TestHandleDurabilitySurface(t *testing.T) {
	ws := histSchemes()[0]
	cases := []struct {
		name       string
		open       func(t *testing.T) *Concurrent
		openMode   string
		closedMode string
		closedErr  error // what the surface and every mutation return after Close
	}{
		{
			name:     "memory",
			open:     func(*testing.T) *Concurrent { return NewConcurrent(ws.s, ws.fds) },
			openMode: "memory", closedMode: "memory",
		},
		{
			name: "durable",
			open: func(t *testing.T) *Concurrent {
				c, err := OpenDurable(filepath.Join(t.TempDir(), "wal"), employeeDurableOpts())
				if err != nil {
					t.Fatalf("open: %v", err)
				}
				return c
			},
			openMode: "healthy", closedMode: "closed", closedErr: ErrDurableClosed,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := tc.open(t)
			if err := c.InsertRow("e1", "-", "d1", "ct1"); err != nil {
				t.Fatalf("insert: %v", err)
			}
			for _, call := range []namedCall{{"Sync", c.Sync}, {"Checkpoint", c.Checkpoint}, {"Recover", c.Recover}, {"Err", c.Err}} {
				if err := call.fn(); err != nil {
					t.Fatalf("%s on an open handle: %v", call.name, err)
				}
			}
			if m := c.Health().Mode; m != tc.openMode {
				t.Fatalf("Health().Mode = %q, want %q", m, tc.openMode)
			}
			if err := c.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}

			before := stateOf(c)
			if m := c.Health().Mode; m != tc.closedMode {
				t.Fatalf("Health().Mode after Close = %q, want %q", m, tc.closedMode)
			}
			tx := c.BeginTxn()
			if err := tx.InsertRow("e3", "-", "d2", "ct2"); err != nil {
				t.Fatalf("stage after Close: %v", err)
			}
			// In memory every call below runs (in an order that keeps each
			// one legal); on the closed durable handle every one is refused.
			for _, call := range []namedCall{
				{"Close", c.Close}, {"Sync", c.Sync}, {"Checkpoint", c.Checkpoint}, {"Recover", c.Recover}, {"Err", c.Err},
				{"Commit", tx.Commit},
				{"InsertRow", func() error { return c.InsertRow("e2", "-", "d1", "-") }},
				{"Update", func() error { return c.Update(0, 1, value.NewConst("s2")) }},
				{"Delete", func() error { return c.Delete(0) }},
			} {
				if err := call.fn(); !errors.Is(err, tc.closedErr) {
					t.Fatalf("%s after Close: got %v, want %v", call.name, err, tc.closedErr)
				}
			}
			if after := stateOf(c); tc.closedErr != nil && !after.equal(before) {
				t.Fatalf("mutations refused with %v still changed the handle:\nbefore %+v\nafter  %+v", tc.closedErr, before, after)
			} else if tc.closedErr == nil && after.ins != before.ins+2 {
				t.Fatalf("in-memory store not usable after Close: %d inserts, want %d", after.ins, before.ins+2)
			}
		})
	}
}

// blockingFS parks the first checkpoint-image Create until release is
// closed, so a test can hold an explicit Checkpoint in its off-lock
// write step.
type blockingFS struct {
	iox.FS
	once             sync.Once
	entered, release chan struct{}
}

func (b *blockingFS) Create(name string) (iox.File, error) {
	if strings.HasSuffix(name, ".relio.tmp") {
		b.once.Do(func() {
			close(b.entered)
			<-b.release
		})
	}
	return b.FS.Create(name)
}

// TestCloseDuringCheckpoint: Close while an explicit Checkpoint is
// serializing off-lock. Once both have returned the directory must
// reopen to the pre-close state, whichever manifest won.
func TestCloseDuringCheckpoint(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "wal")
	opts := employeeDurableOpts()
	opts.GroupCommit = 8 // Close has an unsynced suffix to flush
	c, err := OpenDurable(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range [][]string{{"e1", "s1", "d1", "ct1"}, {"e2", "-", "d1", "-"}, {"e3", "s3", "d2", "ct2"}} {
		if err := c.InsertRow(row...); err != nil {
			t.Fatal(err)
		}
	}
	want := stateOf(c)

	// Installed after open, so the image parked is the explicit one.
	bfs := &blockingFS{FS: iox.OS, entered: make(chan struct{}), release: make(chan struct{})}
	c.st.wal.env.fs = bfs
	ckpt := make(chan error, 1)
	go func() { ckpt <- c.Checkpoint() }()
	<-bfs.entered // the image write is in flight, off-lock
	if err := c.Close(); err != nil {
		t.Fatalf("Close during a checkpoint: %v", err)
	}
	close(bfs.release)
	if err := <-ckpt; err != nil {
		t.Fatalf("Checkpoint overtaken by Close: %v", err)
	}

	assertReopensTo(t, dir, want)
}

func commitRows(c *Concurrent, rows ...[]string) error {
	tx := c.BeginTxn()
	for _, row := range rows {
		if err := tx.InsertRow(row...); err != nil {
			return err
		}
	}
	return tx.Commit()
}

// TestOneRecordPerCommit: every entry point of the durable handle logs
// exactly one record per accepted commit and none otherwise.
func TestOneRecordPerCommit(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "wal")
	opts := employeeDurableOpts()
	c, err := OpenDurable(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	steps := []struct {
		name    string
		run     func() error
		records uint64
		reject  bool
	}{
		{name: "per-op insert", records: 1, run: func() error { return c.InsertRow("e1", "s1", "d1", "ct1") }},
		{name: "txn commit", records: 1, run: func() error {
			return commitRows(c, []string{"e2", "-", "d1", "-"}, []string{"e3", "s3", "d2", "ct2"})
		}},
		{name: "rejected commit", records: 0, reject: true, run: func() error {
			return commitRows(c, []string{"e4", "s4", "d1", "ct3"}) // d1's contract is ct1
		}},
		{name: "empty commit", records: 0, run: func() error { return c.BeginTxn().Commit() }},
	}
	for _, st := range steps {
		before := c.Health().NextSeq
		err := st.run()
		if st.reject != errors.Is(err, ErrInconsistent) || (!st.reject && err != nil) {
			t.Fatalf("%s: got %v (want rejection: %t)", st.name, err, st.reject)
		}
		if got := c.Health().NextSeq - before; got != st.records {
			t.Fatalf("%s: NextSeq advanced by %d, want %d", st.name, got, st.records)
		}
	}
	want := stateOf(c)
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	assertReopensTo(t, dir, want)
}

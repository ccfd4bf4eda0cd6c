package store

// handle_test.go pins the contract of the one handle every store is
// reached through: *Store, in memory (New) or durable (OpenDurable),
// exposes the same durability surface, and every exported method takes
// the store's lock at most once — the lock is not reentrant, so a method
// that calls another one under it hangs, and the watchdog names it.

import (
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"fdnull/internal/iox"
	"fdnull/internal/query"
	"fdnull/internal/relation"
	"fdnull/internal/value"
)

type handleState struct {
	rel                *relation.Relation
	mark               int
	ins, upd, del, rej int
}

func stateOf(c *Store) handleState {
	h := handleState{rel: c.View().Materialize(), mark: c.NextMark()}
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

// handleWatchdog bounds every call the lock-discipline tests make: a
// call that re-enters the store's lock never returns.
const handleWatchdog = 10 * time.Second

// watched runs call.fn and returns its error, failing the test with the
// call's name if it has not returned within handleWatchdog.
func watched(t *testing.T, call namedCall) error {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- call.fn() }()
	select {
	case err := <-done:
		return err
	case <-time.After(handleWatchdog):
		t.Fatalf("%s has not returned after %v: it re-enters the store's lock", call.name, handleWatchdog)
		return nil
	}
}

// everyStoreMethod calls each exported *Store method but Close once, in
// an order that keeps every call legal and error-free on an open handle
// holding one row (e1, -, d1, ct1).
func everyStoreMethod(c *Store) []namedCall {
	s := c.Scheme()
	read := func(name string, fn func()) namedCall {
		return namedCall{name, func() error { fn(); return nil }}
	}
	return []namedCall{
		read("Scheme", func() { c.Scheme() }),
		read("FDs", func() { c.FDs() }),
		{"InsertRow", func() error { return c.InsertRow("e2", "-", "d1", "-") }},
		{"Insert", func() error {
			return c.Insert(relation.Tuple{value.NewConst("e3"), value.NewConst("s3"), value.NewConst("d2"), value.NewConst("ct2")})
		}},
		read("FreshNull", func() { c.FreshNull() }),
		{"Update", func() error { return c.Update(1, s.MustAttr("SL"), value.NewConst("s2")) }},
		{"Begin", func() error {
			tx := c.Begin()
			if err := tx.InsertRow("e4", "-", "d2", "-"); err != nil {
				return err
			}
			return tx.Commit()
		}},
		read("Len", func() { c.Len() }),
		read("NextMark", func() { c.NextMark() }),
		read("Snapshot", func() { c.Snapshot() }),
		read("View", func() { c.View() }),
		read("Tuple", func() { c.Tuple(0) }),
		{"Find", func() error {
			if i := c.Find(c.Tuple(1)); i != 1 {
				return fmt.Errorf("Find(row 1) = %d", i)
			}
			return nil
		}},
		read("Each", func() { c.Each(func(int, relation.Tuple) bool { return true }) }),
		read("Version", func() { c.Version() }),
		read("Stats", func() { c.Stats() }),
		read("CheckStrong", func() { c.CheckStrong() }),
		{"CheckWeak", func() error {
			if !c.CheckWeak() {
				return errors.New("weak satisfiability lost")
			}
			return nil
		}},
		read("Query", func() { c.Query(query.Eq{Attr: s.MustAttr("D#"), Const: "d1"}) }),
		read("QueryCacheStats", func() { c.QueryCacheStats() }),
		{"Save", func() error { return c.Save(io.Discard) }},
		read("String", func() { _ = c.String() }),
		{"Delete", func() error { return c.Delete(c.Len() - 1) }},
		{"Sync", c.Sync}, {"Checkpoint", c.Checkpoint}, {"Recover", c.Recover}, {"Err", c.Err},
		read("Health", func() { c.Health() }),
	}
}

func TestHandleDurabilitySurface(t *testing.T) {
	ws := histSchemes()[0]
	// Every exported method must be in everyStoreMethod (Close is called
	// on its own below), so a new one cannot skip the watchdog.
	covered := map[string]bool{"Close": true}
	for _, call := range everyStoreMethod(New(ws.s, ws.fds, Options{})) {
		covered[call.name] = true
	}
	for typ, i := reflect.TypeOf(&Store{}), 0; i < typ.NumMethod(); i++ {
		if name := typ.Method(i).Name; !covered[name] {
			t.Errorf("exported method Store.%s is not called by everyStoreMethod", name)
		}
	}

	cases := []struct {
		name       string
		open       func(t *testing.T) *Store
		openMode   string
		closedMode string
		closedErr  error // what the surface and every mutation return after Close
	}{
		{
			name:     "memory",
			open:     func(*testing.T) *Store { return New(ws.s, ws.fds, Options{}) },
			openMode: "memory", closedMode: "memory",
		},
		{
			// Every commit rotates the segment and takes an automatic
			// checkpoint, both under the committing writer's lock.
			name: "durable",
			open: func(t *testing.T) *Store {
				opts := employeeDurableOpts()
				opts.CheckpointEvery, opts.SegmentBytes = 1, 64
				c, err := OpenDurable(filepath.Join(t.TempDir(), "wal"), opts)
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
			first := namedCall{"InsertRow", func() error { return c.InsertRow("e1", "-", "d1", "ct1") }}
			for _, call := range append([]namedCall{first}, everyStoreMethod(c)...) {
				if err := watched(t, call); err != nil {
					t.Fatalf("%s on an open handle: %v", call.name, err)
				}
			}
			if m := c.Health().Mode; m != tc.openMode {
				t.Fatalf("Health().Mode = %q, want %q", m, tc.openMode)
			}
			if err := watched(t, namedCall{"Close", c.Close}); err != nil {
				t.Fatalf("Close: %v", err)
			}

			before := stateOf(c)
			if m := c.Health().Mode; m != tc.closedMode {
				t.Fatalf("Health().Mode after Close = %q, want %q", m, tc.closedMode)
			}
			tx := c.Begin()
			if err := tx.InsertRow("e5", "-", "d2", "ct2"); err != nil {
				t.Fatalf("stage after Close: %v", err)
			}
			// In memory every call below runs (in an order that keeps each
			// one legal); on the closed durable handle every one is refused.
			for _, call := range []namedCall{
				{"Close", c.Close}, {"Sync", c.Sync}, {"Checkpoint", c.Checkpoint}, {"Recover", c.Recover}, {"Err", c.Err},
				{"Commit", tx.Commit},
				{"InsertRow", func() error { return c.InsertRow("e6", "-", "d1", "-") }},
				{"Update", func() error { return c.Update(0, 1, value.NewConst("s2")) }},
				{"Delete", func() error { return c.Delete(0) }},
			} {
				if err := watched(t, call); !errors.Is(err, tc.closedErr) {
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

	// Recover re-establishes durability from under the write lock after
	// a commit whose log append failed.
	t.Run("recover-degraded", func(t *testing.T) {
		ffs := iox.NewFaultFS(iox.OS, nil)
		c, err := OpenDurable(filepath.Join(t.TempDir(), "wal"), faultDurableOpts(ffs))
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		if err := c.InsertRow("e1", "-", "d1", "ct1"); err != nil {
			t.Fatalf("insert: %v", err)
		}
		ffs.SetPlan(map[uint64]iox.Fault{ffs.Calls() + 1: {Kind: iox.FaultErr}})
		if err := watched(t, namedCall{"InsertRow", func() error { return c.InsertRow("e2", "s2", "d2", "ct2") }}); !errors.Is(err, ErrWAL) {
			t.Fatalf("commit over a failing append: got %v, want ErrWAL", err)
		}
		if !c.Health().Degraded {
			t.Fatal("a failed append must degrade the handle")
		}
		ffs.SetPlan(nil)
		for _, call := range []namedCall{
			{"Recover", c.Recover},
			{"InsertRow", func() error { return c.InsertRow("e3", "s3", "d2", "ct2") }},
			{"Close", c.Close},
		} {
			if err := watched(t, call); err != nil {
				t.Fatalf("%s after healing: %v", call.name, err)
			}
		}
	})

	// A cross-shard commit holds every touched shard's write lock while
	// each shard logs, rotates and checkpoints; Snapshot then takes every
	// shard's read lock at once.
	t.Run("sharded", func(t *testing.T) {
		s, fds := shardScheme()
		dopts := DurableOptions{CheckpointEvery: 1, SegmentBytes: 64}
		sh, err := OpenShardedDurable(t.TempDir(), s, fds, ShardedOptions{Shards: 2, Key: fds[0].X}, dopts)
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		var keys []string // one key per shard
		for k, seen := 1, map[int]bool{}; len(keys) < 2; k++ {
			key := fmt.Sprintf("k%d", k)
			if home, _ := sh.ShardOf(relation.Tuple{value.NewConst(key), value.NewConst("a1"), value.NewConst("b1")}); !seen[home] {
				seen[home] = true
				keys = append(keys, key)
			}
		}
		for _, call := range []namedCall{
			{"ShardedTxn.Commit", func() error {
				tx := sh.BeginTxn()
				for _, key := range keys {
					if err := tx.InsertRow(key, "a1", "-"); err != nil {
						return err
					}
				}
				return tx.Commit()
			}},
			{"Sharded.Snapshot", func() error {
				if n := sh.Snapshot().Len(); n != 2 {
					return fmt.Errorf("snapshot holds %d rows, want 2", n)
				}
				return nil
			}},
			{"Sharded.Close", sh.Close},
		} {
			if err := watched(t, call); err != nil {
				t.Fatalf("%s: %v", call.name, err)
			}
		}
	})
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
	c.wal.env.fs = bfs
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

func commitRows(c *Store, rows ...[]string) error {
	tx := c.Begin()
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
		{name: "empty commit", records: 0, run: func() error { return c.Begin().Commit() }},
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

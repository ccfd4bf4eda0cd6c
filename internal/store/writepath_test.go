package store

import (
	"errors"
	"fmt"
	"testing"

	"fdnull/internal/relation"
	"fdnull/internal/schema"
	"fdnull/internal/value"
)

// indexWriter is the mutation surface Store and Txn share; the sharded
// store (content-addressed) is adapted to it by shardedByIndex.
type indexWriter interface {
	Insert(relation.Tuple) error
	InsertRow(...string) error
	Update(int, schema.Attr, value.V) error
	Delete(int) error
}

// shardedByIndex addresses a sharded store's tuples by their position in
// its Snapshot; an out-of-range index becomes a well-formed match tuple
// that is not stored, the content-addressed form of the same defect.
type shardedByIndex struct {
	sh     *Sharded
	insert func(relation.Tuple) error
	row    func(...string) error
	update func(relation.Tuple, schema.Attr, value.V) error
	del    func(relation.Tuple) error
}

func (w shardedByIndex) match(ti int) relation.Tuple {
	if snap := w.sh.Snapshot(); ti >= 0 && ti < snap.Len() {
		return snap.Tuple(ti).Clone()
	}
	return relation.Tuple{value.NewConst("k60"), value.NewConst("a1"), value.NewConst("b1")}
}

func (w shardedByIndex) Insert(t relation.Tuple) error { return w.insert(t) }
func (w shardedByIndex) InsertRow(c ...string) error   { return w.row(c...) }
func (w shardedByIndex) Delete(ti int) error           { return w.del(w.match(ti)) }
func (w shardedByIndex) Update(ti int, a schema.Attr, v value.V) error {
	return w.update(w.match(ti), a, v)
}

// TestWritePathTotal: the per-op mutations enter prepareTxn without a
// staging step, so every structural defect must come back as an error
// from every entry point under both engines — never a panic — with the
// instance, the allocator and the accepted-op counters untouched. Only a
// constraint rejection (the `nothing` insert) may move the rejected
// counter.
func TestWritePathTotal(t *testing.T) {
	k, a, b := value.NewConst("k3"), value.NewConst("a1"), value.NewConst("b1")
	defects := []struct {
		name string
		do   func(w indexWriter) error
	}{
		{"short tuple", func(w indexWriter) error { return w.Insert(relation.Tuple{k}) }},
		{"long tuple", func(w indexWriter) error { return w.Insert(relation.Tuple{k, a, b, b}) }},
		{"short row", func(w indexWriter) error { return w.InsertRow("k3", "-") }},
		{"tuple constant outside domain", func(w indexWriter) error {
			return w.Insert(relation.Tuple{k, value.NewConst("zz"), b})
		}},
		{"row constant outside domain, after a fresh null", func(w indexWriter) error {
			return w.InsertRow("k3", "-", "zz")
		}},
		{"duplicate tuple", func(w indexWriter) error { return w.InsertRow("k2", "a2", "b2") }},
		{"nothing in a tuple", func(w indexWriter) error {
			return w.Insert(relation.Tuple{k, a, value.NewNothing()})
		}},
		{"update index below range", func(w indexWriter) error { return w.Update(-1, 1, a) }},
		{"update index above range", func(w indexWriter) error { return w.Update(2, 1, a) }},
		{"update attribute below range", func(w indexWriter) error { return w.Update(0, -1, a) }},
		{"update attribute above range", func(w indexWriter) error { return w.Update(0, 3, a) }},
		{"update constant outside domain", func(w indexWriter) error { return w.Update(0, 1, value.NewConst("zz")) }},
		{"update to nothing", func(w indexWriter) error { return w.Update(0, 1, value.NewNothing()) }},
		{"null of mark 0 in a tuple", func(w indexWriter) error { return w.Insert(relation.Tuple{k, a, value.V{}}) }},
		{"update to a null of mark 0", func(w indexWriter) error { return w.Update(0, 2, value.V{}) }},
		{"delete index below range", func(w indexWriter) error { return w.Delete(-1) }},
		{"delete index above range", func(w indexWriter) error { return w.Delete(2) }},
	}

	type target struct {
		name  string
		run   func(do func(indexWriter) error) error
		state func() string // instance, allocator, accepted-op counters
		rej   func() int
	}
	describe := func(r *relation.Relation, mark, ins, upd, del int) string {
		return fmt.Sprintf("%v next ⊥%d accepted %d/%d/%d", stateKeys(r), mark, ins, upd, del)
	}
	preload := func(insertRow func(...string) error) {
		for _, row := range [][]string{{"k1", "a1", "-"}, {"k2", "a2", "b2"}} {
			if err := insertRow(row...); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, m := range bothEngines {
		s, fds := shardScheme()
		st := m.on(New(s, fds, Options{}))
		c := m.on(New(s, fds, Options{})) // the Concurrent legs' store: a second handle, driven per op and by Begin/Commit
		sh, _, _ := mustSharded(t, 2, m)
		preload(st.InsertRow)
		preload(c.InsertRow)
		preload(sh.InsertRow)
		storeState := func(st *Store) func() string {
			return func() string {
				ins, upd, del, _ := st.Stats()
				return describe(st.Snapshot(), st.NextMark(), ins, upd, del)
			}
		}
		storeRej := func(st *Store) func() int {
			return func() int { _, _, _, rej := st.Stats(); return rej }
		}
		shState := func() string {
			ins, upd, del, _ := sh.Stats()
			return describe(sh.Snapshot(), sh.NextMark(), ins, upd, del)
		}
		shRej := func() int { _, _, _, rej := sh.Stats(); return rej }
		targets := []target{
			{"Store", func(do func(indexWriter) error) error { return do(st) }, storeState(st), storeRej(st)},
			{"Txn", func(do func(indexWriter) error) error {
				tx := st.Begin()
				if err := do(tx); err != nil {
					return err
				}
				return tx.Commit()
			}, storeState(st), storeRej(st)},
			{"Concurrent", func(do func(indexWriter) error) error { return do(c) }, storeState(c), storeRej(c)},
			{"ConcurrentTxn", func(do func(indexWriter) error) error {
				tx := c.Begin()
				if err := do(tx); err != nil {
					return err
				}
				return tx.Commit()
			}, storeState(c), storeRej(c)},
			{"Sharded", func(do func(indexWriter) error) error {
				return do(shardedByIndex{sh, sh.Insert, sh.InsertRow, sh.UpdateTuple, sh.DeleteTuple})
			}, shState, shRej},
			{"ShardedTxn", func(do func(indexWriter) error) error {
				tx := sh.BeginTxn()
				if err := do(shardedByIndex{sh, tx.Insert, tx.InsertRow, tx.Update, tx.Delete}); err != nil {
					return err
				}
				return tx.Commit()
			}, shState, shRej},
		}
		for _, tg := range targets {
			for _, d := range defects {
				t.Run(fmt.Sprintf("%s/%s/%s", m, tg.name, d.name), func(t *testing.T) {
					before, rejBefore := tg.state(), tg.rej()
					err := tg.run(d.do)
					if err == nil {
						t.Fatal("defective op accepted")
					}
					if after := tg.state(); after != before {
						t.Fatalf("refused op left a trace (%v):\nbefore %s\nafter  %s", err, before, after)
					}
					wantRej := 0
					if errors.Is(err, ErrInconsistent) {
						wantRej = 1
					}
					if got := tg.rej() - rejBefore; got != wantRej {
						t.Fatalf("rejected counter moved by %d, want %d (%v)", got, wantRej, err)
					}
				})
			}
		}
	}
}

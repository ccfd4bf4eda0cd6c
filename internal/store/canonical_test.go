package store

import (
	"fmt"
	"strings"
	"testing"
	"unsafe"

	"fdnull/internal/fd"
	"fdnull/internal/relation"
	"fdnull/internal/relio"
	"fdnull/internal/schema"
	"fdnull/internal/value"
)

// canonScheme is R(K, A, B) keyed on K: K an IntDomain (computed
// membership), A a 20-value NewDomain (the map path), B a 3-value one
// (the scan path), so every lookup form a write path can meet is covered.
func canonScheme(t *testing.T) (*schema.Scheme, []fd.FD) {
	t.Helper()
	as := make([]string, 20)
	for i := range as {
		as[i] = fmt.Sprintf("a%d", i+1)
	}
	s := schema.MustNew("R", []string{"K", "A", "B"}, []*schema.Domain{
		schema.IntDomain("key", "k", 64), schema.MustDomain("alpha", as...), schema.MustDomain("beta", "b1", "b2", "b3"),
	})
	fds, err := fd.ParseSet(s, "K -> A; K -> B")
	if err != nil {
		t.Fatal(err)
	}
	return s, fds
}

// fresh returns a copy of c in bytes of its own, as a decoded request or
// a parsed file line would hand it over.
func fresh(c string) string { return strings.Clone(c) }

func freshConst(c string) value.V { return value.NewConst(fresh(c)) }

// requireShared fails unless every constant cell of v shares its bytes
// with the Values entry of its attribute's domain in s.
func requireShared(t *testing.T, path string, s *schema.Scheme, v relation.View) {
	t.Helper()
	if v.Len() == 0 {
		t.Fatalf("%s: no rows to check", path)
	}
	for i := 0; i < v.Len(); i++ {
		for a, c := range v.Tuple(i) {
			if !c.IsConst() {
				continue
			}
			d := s.Domain(schema.Attr(a))
			want, ok := d.Canonical(c.Const())
			if !ok {
				t.Fatalf("%s: row %d cell %q is outside domain %s", path, i, c.Const(), d.Name)
			}
			if unsafe.StringData(c.Const()) != unsafe.StringData(want) {
				t.Errorf("%s: row %d attribute %s holds its own copy of %q, not domain %s's", path, i, s.AttrName(schema.Attr(a)), c.Const(), d.Name)
			}
		}
	}
}

// TestStoredConstantsShareDomainStrings pins that a domain is the one owner
// of its constants: whichever write path makes a constant cell resident —
// Store.InsertRow, Insert and Update, a Txn's inserts and update, a 2-shard
// cross-shard commit (a key update moves its row), a durable store reopened
// from its checkpoint and its log, and a relio file loaded into
// FromRelation — the cell holds its domain's Values entry, not the bytes
// the caller handed in.
func TestStoredConstantsShareDomainStrings(t *testing.T) {
	s, fds := canonScheme(t)
	A := s.MustAttr("A")

	t.Run("Store", func(t *testing.T) {
		st := New(s, fds, Options{})
		if err := st.InsertRow(fresh("k1"), fresh("a1"), fresh("b1")); err != nil {
			t.Fatal(err)
		}
		if err := st.Insert(relation.Tuple{freshConst("k2"), freshConst("a2"), st.FreshNull()}); err != nil {
			t.Fatal(err)
		}
		if err := st.Update(1, A, freshConst("a17")); err != nil {
			t.Fatal(err)
		}
		requireShared(t, "Store", s, st.View())
	})

	t.Run("Txn", func(t *testing.T) {
		st := New(s, fds, Options{})
		tx := st.Begin()
		for _, err := range []error{
			tx.InsertRow(fresh("k1"), fresh("a1"), "-"),
			tx.Insert(relation.Tuple{freshConst("k2"), freshConst("a20"), freshConst("b2")}),
			tx.Update(0, A, freshConst("a3")),
			tx.Update(0, s.MustAttr("B"), freshConst("b3")),
		} {
			if err != nil {
				t.Fatal(err)
			}
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		requireShared(t, "Txn", s, st.View())
	})

	t.Run("ShardedCrossShard", func(t *testing.T) {
		sh, err := NewSharded(s, fds, ShardedOptions{Shards: 2, Key: s.MustSet("K")})
		if err != nil {
			t.Fatal(err)
		}
		tx := sh.BeginTxn()
		for k := 1; k <= 8; k++ {
			if err := tx.InsertRow(fresh(fmt.Sprintf("k%d", k)), fresh(fmt.Sprintf("a%d", k)), fresh("b1")); err != nil {
				t.Fatal(err)
			}
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < sh.NumShards(); i++ {
			if sh.Shard(i).Len() == 0 {
				t.Fatalf("shard %d is empty: the commit was not cross-shard", i)
			}
		}
		// A key update moves its row to whichever shard owns the new key
		// (delete + insert under 2PC); another row takes a new A.
		row := func(k, a string) relation.Tuple {
			return relation.Tuple{value.NewConst(k), value.NewConst(a), value.NewConst("b1")}
		}
		tx = sh.BeginTxn()
		for k := 9; k <= 16; k++ {
			if err := tx.Update(row(fmt.Sprintf("k%d", k-8), fmt.Sprintf("a%d", k-8)), s.MustAttr("K"), freshConst(fmt.Sprintf("k%d", k))); err != nil {
				t.Fatal(err)
			}
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		if err := sh.UpdateTuple(row("k9", "a1"), A, freshConst("a19")); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < sh.NumShards(); i++ {
			requireShared(t, fmt.Sprintf("shard %d", i), s, sh.Shard(i).View())
		}
	})

	t.Run("DurableReopen", func(t *testing.T) {
		dir := t.TempDir()
		st, err := OpenDurable(dir, DurableOptions{Scheme: s, FDs: fds})
		if err != nil {
			t.Fatal(err)
		}
		// Rows 1–2 reach the checkpoint; row 3 and the update only the log.
		for _, r := range [][]string{{"k1", "a1", "b1"}, {"k2", "a18", "-"}} {
			if err := st.InsertRow(fresh(r[0]), fresh(r[1]), fresh(r[2])); err != nil {
				t.Fatal(err)
			}
		}
		if err := st.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		if err := st.InsertRow(fresh("k3"), fresh("a3"), fresh("b3")); err != nil {
			t.Fatal(err)
		}
		if err := st.Update(1, s.MustAttr("B"), freshConst("b2")); err != nil {
			t.Fatal(err)
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		re, err := OpenDurable(dir, DurableOptions{})
		if err != nil {
			t.Fatal(err)
		}
		defer re.Close()
		if re.Len() != 3 {
			t.Fatalf("reopened store holds %d rows, want 3", re.Len())
		}
		requireShared(t, "reopen", re.Scheme(), re.View())
	})

	t.Run("RelioFromRelation", func(t *testing.T) {
		f, err := relio.ParseString("domain key = k1 k2 k3\ndomain ct = full part\n" +
			"scheme R(K:key, C:ct)\nfd K -> C\nrow k1 full\nrow k2 -\nrow k3 -1\nrow k3 part\n")
		if err != nil {
			t.Fatal(err)
		}
		requireShared(t, "relio", f.Scheme, f.Relation.View())
		st, err := FromRelation(f.Scheme, f.FDs, f.Relation)
		if err != nil {
			t.Fatal(err)
		}
		requireShared(t, "FromRelation", f.Scheme, st.View())
	})
}

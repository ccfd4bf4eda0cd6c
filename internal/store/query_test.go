package store

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"fdnull/internal/fd"
	"fdnull/internal/query"
	"fdnull/internal/relation"
	"fdnull/internal/schema"
	"fdnull/internal/tvl"
	"fdnull/internal/value"
)

func refineScheme() (*schema.Scheme, []fd.FD) {
	s := schema.MustNew("R", []string{"E#", "SL", "D#"}, []*schema.Domain{
		schema.IntDomain("emp", "e", 4),
		schema.IntDomain("sal", "s", 12),
		schema.MustDomain("dep", "d1", "d2"),
	})
	return s, fd.MustParseSet(s, "E# -> SL")
}

// TestStoreQueryRefinement pins the FD-based refinement: the stored
// instance is chase-normalized, so values the dependencies force decide
// atoms that are Maybe on the raw input — and per-tuple EvalBrute over
// the stored tuples confirms every promotion is a certainty, not a
// guess.
func TestStoreQueryRefinement(t *testing.T) {
	for _, m := range bothEngines {
		t.Run(m.String(), func(t *testing.T) {
			s, fds := refineScheme()
			rows := [][]string{
				{"e1", "s10", "d1"},
				{"e1", "-", "d2"}, // SL forced to s10 by E# -> SL
				{"e2", "-", "d1"}, // SL genuinely unknown
			}
			st := m.on(New(s, fds, Options{}))
			for _, row := range rows {
				if err := st.InsertRow(row...); err != nil {
					t.Fatal(err)
				}
			}
			p := query.Eq{Attr: s.MustAttr("SL"), Const: "s10"}

			// The raw input leaves the forced tuple a possible answer...
			raw := relation.MustFromRows(s, rows...)
			rawRes := query.Select(raw, p)
			if len(rawRes.Sure) != 1 || len(rawRes.Maybe) != 2 {
				t.Fatalf("raw input: Sure=%v Maybe=%v, want 1 sure / 2 maybe", rawRes.Sure, rawRes.Maybe)
			}
			// ...the store has substituted it: Maybe → Sure. e2 stays Maybe.
			res := st.Query(p)
			if len(res.Sure) != 2 || len(res.Maybe) != 1 {
				t.Fatalf("store query: Sure=%v Maybe=%v, want 2 sure / 1 maybe\n%s",
					res.Sure, res.Maybe, st.Snapshot())
			}
			// The oracle: every verdict equals the least extension of the
			// stored (normalized) tuple — atoms are exact.
			assertBruteAgrees(t, st, p, res)

			// NEC-class refinement of attribute equality: one tuple carries
			// a user-shared mark across B and C; the dependencies then pull
			// a second tuple's two independent fresh nulls into those NEC
			// classes, deciding B = C on a tuple whose raw form left it open.
			dom := schema.IntDomain("d", "v", 6)
			s2 := schema.Uniform("S", []string{"A", "B", "C"}, dom)
			fds2 := fd.MustParseSet(s2, "A -> B; A -> C")
			st2 := m.on(New(s2, fds2, Options{}))
			if err := st2.InsertRow("v1", "-1", "-1"); err != nil {
				t.Fatal(err)
			}
			if err := st2.InsertRow("v1", "-", "-"); err != nil {
				t.Fatal(err)
			}
			eq := query.EqAttr{A: s2.MustAttr("B"), B: s2.MustAttr("C")}
			raw2 := relation.MustFromRows(s2, []string{"v1", "-1", "-1"}, []string{"v1", "-", "-"})
			if r := query.Select(raw2, eq); len(r.Sure) != 1 || len(r.Maybe) != 1 {
				t.Fatalf("raw shared-mark input: Sure=%v Maybe=%v", r.Sure, r.Maybe)
			}
			res2 := st2.Query(eq)
			if len(res2.Sure) != 2 || len(res2.Maybe) != 0 {
				t.Fatalf("NEC refinement: Sure=%v Maybe=%v, want both sure\n%s",
					res2.Sure, res2.Maybe, st2.Snapshot())
			}
			assertBruteAgrees(t, st2, eq, res2)
		})
	}
}

// assertBruteAgrees checks a store query result tuple-for-tuple against
// query.EvalBrute on the stored instance.
func assertBruteAgrees(t *testing.T, st *Store, p query.Pred, res query.Result) {
	t.Helper()
	verdict := make(map[int]tvl.T)
	for _, i := range res.Sure {
		verdict[i] = tvl.True
	}
	for _, i := range res.Maybe {
		verdict[i] = tvl.Unknown
	}
	for i := 0; i < st.Len(); i++ {
		want, err := query.EvalBrute(st.Scheme(), st.Tuple(i), p)
		if err != nil {
			t.Fatal(err)
		}
		got, ok := verdict[i]
		if !ok {
			got = tvl.False
		}
		if got != want {
			t.Fatalf("tuple %d %s: store=%v brute=%v", i, st.Tuple(i), got, want)
		}
	}
}

// TestStoreQueryDomainExhaustion is the paper's married-or-single query
// served from the store: a domain-covering In is Sure even on a null.
func TestStoreQueryDomainExhaustion(t *testing.T) {
	s := schema.MustNew("R", []string{"name", "ms"}, []*schema.Domain{
		schema.IntDomain("names", "p", 4),
		schema.MustDomain("marital", "married", "single"),
	})
	st := New(s, nil, Options{})
	if err := st.InsertRow("p1", "-"); err != nil {
		t.Fatal(err)
	}
	ms := s.MustAttr("ms")
	if res := st.Query(query.Eq{Attr: ms, Const: "married"}); len(res.Maybe) != 1 {
		t.Errorf("Q: want John in Maybe, got %v/%v", res.Sure, res.Maybe)
	}
	if res := st.Query(query.In{Attr: ms, Values: []string{"married", "single"}}); len(res.Sure) != 1 {
		t.Errorf("Q': want John in Sure, got %v/%v", res.Sure, res.Maybe)
	}
}

// TestConcurrentQuery races selections against writers on a two-shard
// store (run under -race): a selection is evaluated on the live relation
// under its shard's read lock, so it must always describe one committed
// state of that shard — never a write-set in progress. Each writer owns
// a key range and, per key, commits an insert, a second row whose null
// the NS-rule K -> A substitutes in place (re-homing the row in the A
// index the readers probe), a write-set the dependency rejects, and in
// rotation a content-addressed update and a delete. Readers alternate
// Store.Query on one shard with Sharded.SelectTuples; the quiesced
// answers are checked against the scan.
func TestConcurrentQuery(t *testing.T) {
	s := schema.MustNew("R", []string{"K", "A", "B"}, []*schema.Domain{
		schema.IntDomain("key", "k", 128),
		schema.IntDomain("alpha", "a", 4),
		schema.IntDomain("beta", "b", 4),
	})
	fds := fd.MustParseSet(s, "K -> A")
	sh, err := NewSharded(s, fds, ShardedOptions{Shards: 2, Key: fds[0].X})
	if err != nil {
		t.Fatalf("NewSharded: %v", err)
	}
	attrA, attrB := s.MustAttr("A"), s.MustAttr("B")
	p := query.Eq{Attr: attrA, Const: "a1"}
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				k, a := fmt.Sprintf("k%d", 1+w*40+i), fmt.Sprintf("a%d", 1+i%2)
				if err := sh.InsertRow(k, a, "b1"); err != nil {
					t.Errorf("insert: %v", err)
					return
				}
				if err := sh.InsertRow(k, "-", "b2"); err != nil {
					t.Errorf("insert with a forced null: %v", err)
					return
				}
				if err := sh.InsertRow(k, "a3", "b3"); !errors.Is(err, ErrInconsistent) {
					t.Errorf("insert contradicting K -> A: got %v, want a constraint rejection", err)
					return
				}
				var err error
				switch i % 3 {
				case 1:
					err = sh.UpdateTuple(relation.MustFromRows(s, []string{k, a, "b1"}).Tuple(0), attrB, value.NewConst("b4"))
				case 2:
					err = sh.DeleteTuple(relation.MustFromRows(s, []string{k, a, "b2"}).Tuple(0))
				}
				if err != nil {
					t.Errorf("update/delete: %v", err)
					return
				}
			}
		}(w)
	}
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < 60; i++ {
				res := sh.Shard(r % 2).Query(p)
				for j := 1; j < len(res.Sure); j++ {
					if res.Sure[j] <= res.Sure[j-1] {
						t.Error("Sure indices must be strictly ascending")
						return
					}
				}
				// Every null on A is forced inside the commit that stores
				// it, so no committed state has a Maybe answer, and the
				// answer tuples were cloned before the lock dropped.
				sure, maybe := sh.SelectTuples(p, query.Options{})
				if len(maybe) != 0 {
					t.Errorf("SelectTuples saw an unsettled write-set: maybe %v", maybe)
					return
				}
				for _, tup := range sure {
					if !tup[attrA].IsConst() || tup[attrA].Const() != "a1" {
						t.Errorf("SelectTuples(%s) returned %s", p, tup)
						return
					}
				}
			}
		}(r)
	}
	wg.Wait()
	for i := 0; i < sh.NumShards(); i++ {
		c := sh.Shard(i)
		if got, want := c.Query(p), query.Select(c.View(), p); !got.Equal(want) {
			t.Fatalf("shard %d: quiesced query disagrees with the scan: %v vs %v", i, got, want)
		}
	}
	assertShardedReadsMatchScan(t, -1, sh, []query.Pred{p})
}

// TestTxnQuerySnapshotIsolation: a selection over a transaction's
// Snapshot reads its begin-time state even after other writers commit.
func TestTxnQuerySnapshotIsolation(t *testing.T) {
	s, fds := refineScheme()
	c := New(s, fds, Options{})
	if err := c.InsertRow("e1", "s10", "d1"); err != nil {
		t.Fatal(err)
	}
	p := query.Eq{Attr: s.MustAttr("D#"), Const: "d1"}
	tx := c.Begin()
	defer tx.Rollback()
	snap := c.View()
	before := query.Select(snap, p)
	if err := c.InsertRow("e2", "s11", "d1"); err != nil {
		t.Fatal(err)
	}
	if got := query.Select(snap, p); !got.Equal(before) {
		t.Fatalf("txn query must be frozen at begin time: %v then %v", before, got)
	}
	if got := c.Query(p); got.Equal(before) {
		t.Fatal("store query must see the committed insert")
	}
}

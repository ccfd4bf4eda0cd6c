package fdnull_test

import (
	"errors"
	"strings"
	"testing"

	fdnull "fdnull"
)

func maritalScheme(t *testing.T) *fdnull.Scheme {
	t.Helper()
	ms, err := fdnull.NewDomain("marital", "married", "single")
	if err != nil {
		t.Fatal(err)
	}
	s, err := fdnull.NewScheme("Emp",
		[]string{"E#", "D#", "MS"},
		[]*fdnull.Domain{
			fdnull.IntDomain("emp#", "e", 10),
			fdnull.IntDomain("dept#", "d", 4),
			ms,
		})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestPublicQuerySection2(t *testing.T) {
	s := maritalScheme(t)
	r := fdnull.MustFromRows(s,
		[]string{"e1", "d1", "married"},
		[]string{"e2", "d1", "-"})
	ms := s.MustAttr("MS")
	john := r.Tuple(1)
	if got := (fdnull.Eq{Attr: ms, Const: "married"}).Eval(s, john); got != fdnull.Unknown {
		t.Errorf("Q = %v, want unknown", got)
	}
	if got := (fdnull.In{Attr: ms, Values: []string{"married", "single"}}).Eval(s, john); got != fdnull.True {
		t.Errorf("Q' = %v, want true", got)
	}
	res := fdnull.Select(r, fdnull.OrPred{
		P: fdnull.Eq{Attr: ms, Const: "married"},
		Q: fdnull.EqAttr{A: 0, B: 0},
	})
	if len(res.Sure) != 2 {
		t.Errorf("trivial disjunct should make everything sure: %v", res)
	}
	res2 := fdnull.Select(r, fdnull.AndPred{
		P: fdnull.NotPred{P: fdnull.Eq{Attr: ms, Const: "single"}},
		Q: fdnull.Eq{Attr: s.MustAttr("D#"), Const: "d1"},
	})
	if len(res2.Sure) != 1 || len(res2.Maybe) != 1 {
		t.Errorf("partition = %v", res2)
	}
}

func TestPublicStoreLifecycle(t *testing.T) {
	s := maritalScheme(t)
	fds := fdnull.MustParseFDs(s, "E# -> D#,MS")
	st := fdnull.NewStore(s, fds)
	if err := st.InsertRow("e1", "d1", "married"); err != nil {
		t.Fatal(err)
	}
	err := st.InsertRow("e1", "d2", "married")
	var ierr *fdnull.InconsistencyError
	if !errors.As(err, &ierr) {
		t.Fatalf("expected InconsistencyError, got %v", err)
	}
	if st.Len() != 1 {
		t.Error("rejected insert must not change the store")
	}
	if err := st.Update(0, s.MustAttr("MS"), fdnull.Const("single")); err != nil {
		t.Fatal(err)
	}
	if !st.CheckWeak() || !st.CheckStrong() {
		t.Error("complete consistent store should be strong and weak")
	}
	if err := st.Delete(0); err != nil || st.Len() != 0 {
		t.Errorf("delete: %v, len=%d", err, st.Len())
	}
}

func TestPublicDiscoveryAndPersistence(t *testing.T) {
	s := maritalScheme(t)
	fds := fdnull.MustParseFDs(s, "E# -> D#,MS")
	st := fdnull.NewStore(s, fds)
	for _, row := range [][]string{
		{"e1", "d1", "married"},
		{"e2", "d1", "-"},
		{"e3", "d2", "single"},
	} {
		if err := st.InsertRow(row...); err != nil {
			t.Fatal(err)
		}
	}
	// Persistence round trip through the facade.
	var buf strings.Builder
	if err := st.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := fdnull.LoadStore(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Len() != 3 {
		t.Errorf("loaded %d tuples", loaded.Len())
	}
	// Discovery through the facade: the declared key dependency must be
	// recoverable from the data.
	mined, err := fdnull.DiscoverCover(loaded.Snapshot(), fdnull.DiscoverOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !fdnull.Implies(mined, fds[0]) {
		t.Errorf("discovered cover %s should imply the key FD",
			fdnull.FormatFDs(s, mined))
	}
	all, err := fdnull.DiscoverFDs(loaded.Snapshot(), fdnull.DiscoverOptions{MaxLHS: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range all {
		if f.X.Len() > 1 {
			t.Errorf("MaxLHS violated by %s", f.Format(s))
		}
	}
	// Witness machinery through the facade.
	w, ok := fdnull.CounterexampleWitness(fds, fdnull.MustParseFD(s, "D# -> MS"), s.All())
	if !ok {
		t.Fatal("D# -> MS is not implied; witness expected")
	}
	rows, err := w.Build(s)
	if err != nil || len(rows) != 2 {
		t.Errorf("witness build: %v %v", rows, err)
	}
	// Armstrong relation through the facade.
	_, arm, err := fdnull.ArmstrongRelation(3, nil)
	if err != nil || arm.Len() == 0 {
		t.Errorf("ArmstrongRelation: %v %v", arm, err)
	}
	// ParsePred through the facade.
	p, err := fdnull.ParsePred(s, "MS in (married, single) and not D# = d2")
	if err != nil {
		t.Fatal(err)
	}
	res := fdnull.Select(loaded.Snapshot(), p)
	if len(res.Sure) != 2 {
		t.Errorf("e1 and e2 are certain answers, got %v", res)
	}
}

func TestPublicXSubstitutions(t *testing.T) {
	two, err := fdnull.NewDomain("domA", "a1", "a2")
	if err != nil {
		t.Fatal(err)
	}
	s, err := fdnull.NewScheme("R", []string{"A", "B", "C"},
		[]*fdnull.Domain{two, fdnull.IntDomain("b", "b", 3), fdnull.IntDomain("c", "c", 3)})
	if err != nil {
		t.Fatal(err)
	}
	fds := fdnull.MustParseFDs(s, "A,B -> C")
	r := fdnull.MustFromRows(s,
		[]string{"-", "b1", "c1"},
		[]string{"a1", "b1", "c2"})
	out, subs, err := fdnull.ApplyXSubstitutions(r, fds)
	if err != nil {
		t.Fatal(err)
	}
	if len(subs) != 1 || subs[0].Condition != 2 {
		t.Fatalf("subs = %v", subs)
	}
	if got := out.Tuple(0)[0]; !got.IsConst() || got.Const() != "a2" {
		t.Errorf("A = %v, want a2", got)
	}
}

// TestPublicQueryV2 exercises the v2 query surface: the planner vs the
// scan, the plan report, partition statistics, the decomposed-schema
// selection, and a recheck store's rejection.
func TestPublicQueryV2(t *testing.T) {
	s := maritalScheme(t)
	fds := fdnull.MustParseFDs(s, "E# -> D#,MS")
	r := fdnull.MustFromRows(s,
		[]string{"e1", "d1", "married"},
		[]string{"e2", "d1", "single"},
		[]string{"e3", "d2", "married"})
	p := fdnull.OrPred{
		P: fdnull.Eq{Attr: s.MustAttr("E#"), Const: "e1"},
		Q: fdnull.Eq{Attr: s.MustAttr("D#"), Const: "d2"},
	}
	want := fdnull.Select(r, p)
	if got := fdnull.SelectWith(r, p, fdnull.QueryOptions{}); !got.Equal(want) {
		t.Errorf("indexed diverged from the scan: %v vs %v", got, want)
	}
	res, ex := fdnull.SelectExplain(r, p, fdnull.QueryOptions{})
	if !res.Equal(want) || ex.Scan || !strings.Contains(ex.String(), "union") {
		t.Errorf("explain: res=%v report=%v", res, ex)
	}
	if st := fdnull.IndexOn(r, s.MustSet("D#")).Stats(); st.Rows != 3 || st.Groups != 2 {
		t.Errorf("IndexStats = %+v", st)
	}

	comps := []fdnull.AttrSet{s.MustSet("E#", "D#"), s.MustSet("E#", "MS")}
	frags, err := fdnull.ProjectInstance(r, comps)
	if err != nil {
		t.Fatal(err)
	}
	j, err := fdnull.SelectJoined(s, fds, frags, comps, p, fdnull.QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Pushdown pre-filters fragment rows the predicate falsifies, so the
	// joined instance holds the answers only; the answer set must match.
	if j.Chased || len(j.Res.Sure) != len(want.Sure) || len(j.Res.Maybe) != len(want.Maybe) {
		t.Errorf("joined selection: chased=%v len=%d res=%v want=%v", j.Chased, j.Rel.Len(), j.Res, want)
	}

	st := fdnull.NewStore(s, fds)
	if err := st.InsertRow("e1", "d1", "married"); err != nil {
		t.Fatal(err)
	}
	if err := st.InsertRow("e1", "d2", "single"); err == nil {
		t.Error("the store must reject the E# -> D# violation")
	}
	if st.Len() != 1 || !st.CheckWeak() {
		t.Errorf("store after rejection: len=%d", st.Len())
	}
}

package relation

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"fdnull/internal/schema"
	"fdnull/internal/value"
)

// indexShape flattens an index into a canonical, order-insensitive form
// so delta-maintained indexes can be compared against fresh rebuilds.
func indexShape(ix *Index) string {
	norm := func(rows []int) []int {
		out := append([]int(nil), rows...)
		sort.Ints(out)
		return out
	}
	var groups [][]int
	ix.ForEachGroup(func(rows []int) bool {
		groups = append(groups, norm(rows))
		return true
	})
	sort.Slice(groups, func(i, j int) bool {
		return fmt.Sprint(groups[i]) < fmt.Sprint(groups[j])
	})
	return fmt.Sprintf("groups=%v nulls=%v nothing=%v", groups, norm(ix.NullRows()), norm(ix.NothingRows()))
}

// TestDeltaIndexDifferential runs randomized mutation sequences — the
// delta mutators (InsertDelta, InsertDeltaBatch with batches that fail on
// their k-th row, DeleteDelta, SetCellDelta), the plain ones (Insert,
// SetCell, ordered Delete, InsertUnchecked of a true duplicate), DeleteDelta
// undone by UndeleteDelta (sometimes with a View outstanding), and Clone —
// and asserts after every step that each cached index is identical (up to
// row order) to a fresh BuildIndex of the current tuples, and that the
// identity probe agrees with the linear scan it replaced. The second run
// forces every identity hash to collide, so the multi-row path alone has to
// carry the same sequence.
func TestDeltaIndexDifferential(t *testing.T) {
	t.Run("hashed", deltaIndexDifferential)
	t.Run("colliding", func(t *testing.T) {
		identMask = 0
		defer func() { identMask = ^uint64(0) }()
		deltaIndexDifferential(t)
	})
}

func deltaIndexDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(20260730))
	dom := schema.IntDomain("d", "v", 5)
	s := schema.Uniform("R", []string{"A", "B", "C"}, dom)
	all := s.All()
	sets := []schema.AttrSet{
		schema.NewAttrSet(0),
		schema.NewAttrSet(0, 1),
		schema.NewAttrSet(2),
		all,
	}
	r := New(s)
	randVal := func() value.V {
		if rng.Intn(5) == 0 {
			return r.FreshNull()
		}
		return value.NewConst(dom.Values[rng.Intn(dom.Size())])
	}
	scan := func(tup Tuple) int {
		for j, u := range r.Tuples() {
			if tup.IdenticalOn(u, all) {
				return j
			}
		}
		return -1
	}
	for op := 0; op < 900; op++ {
		// Touch every set so the cache stays warm and delta-maintained.
		for _, set := range sets {
			r.IndexOn(set)
		}
		switch k := rng.Intn(12); {
		case r.Len() == 0 || k < 3:
			tup := Tuple{randVal(), randVal(), randVal()}
			if _, err := r.InsertDelta(tup); err != nil {
				continue // duplicate or other rejection: no mutation happened
			}
		case k < 5:
			r.SetCellDelta(rng.Intn(r.Len()), schema.Attr(rng.Intn(3)), randVal())
		case k < 7:
			r.DeleteDelta(rng.Intn(r.Len()))
		case k == 7:
			// A batch whose last row may repeat a stored row or an earlier
			// row of the batch: it must then fail there and unwind whole.
			n := r.Len()
			batch := make([]Tuple, 1+rng.Intn(4))
			for b := range batch {
				batch[b] = Tuple{randVal(), randVal(), randVal()}
			}
			mark := r.NextMark()
			switch last := len(batch) - 1; rng.Intn(3) {
			case 0:
				batch[last] = r.Tuple(rng.Intn(n)).Clone()
			case 1:
				batch[last] = batch[rng.Intn(len(batch))].Clone() // itself when last == 0: no duplicate
			}
			wantBad := -1
			for b, tup := range batch {
				dup := scan(tup) >= 0
				for _, u := range batch[:b] {
					dup = dup || tup.IdenticalOn(u, all)
				}
				if dup {
					wantBad = b
					break
				}
			}
			first, bad, err := r.InsertDeltaBatch(batch)
			if bad != wantBad || (err != nil) != (wantBad >= 0) {
				t.Fatalf("op %d: batch bad=%d err=%v, want bad=%d", op, bad, err, wantBad)
			}
			if err == nil && (first != n || r.Len() != n+len(batch)) {
				t.Fatalf("op %d: batch first=%d len=%d, want %d/%d", op, first, r.Len(), n, n+len(batch))
			}
			if err != nil && (r.Len() != n || r.NextMark() != mark) {
				t.Fatalf("op %d: failed batch left len=%d mark=%d, want %d/%d", op, r.Len(), r.NextMark(), n, mark)
			}
		case k == 8:
			switch rng.Intn(4) {
			case 0:
				_ = r.Insert(Tuple{randVal(), randVal(), randVal()}) // a duplicate draw is a no-op
			case 1:
				r.SetCell(rng.Intn(r.Len()), schema.Attr(rng.Intn(3)), randVal())
			case 2:
				r.Delete(rng.Intn(r.Len()))
			default:
				r.InsertUnchecked(r.Tuple(rng.Intn(r.Len())).Clone()) // a true duplicate
			}
		case k == 9:
			// Delete and undelete: rows, order and (checked below) every
			// index must be what they were. Every other time a View is
			// outstanding, so the copy-on-write flags travel too.
			before := r.String()
			var v View
			if rng.Intn(2) == 0 {
				v = r.View()
			}
			i := rng.Intn(r.Len())
			tup, want := r.Tuple(i), r.Tuple(i).Clone()
			r.DeleteDelta(i)
			r.UndeleteDelta(i, tup)
			if r.String() != before {
				t.Fatalf("op %d: delete + undelete of row %d changed the instance:\nbefore:\n%safter:\n%s", op, i, before, r)
			}
			r.SetCellDelta(i, 0, randVal())
			if v.Len() > 0 && !v.Tuple(i).IdenticalOn(want, all) {
				t.Fatalf("op %d: the View saw an overwrite of undeleted row %d: %s, was %s", op, i, v.Tuple(i), want)
			}
		case k == 10:
			r = r.Clone()
		default:
			continue
		}
		for _, set := range sets {
			got := indexShape(r.IndexOn(set))
			want := indexShape(BuildIndex(r, set))
			if got != want {
				t.Fatalf("op %d: delta index on %s diverged:\n got %s\nwant %s\n%s",
					op, s.FormatSet(set), got, want, r)
			}
		}
		for i, u := range r.Tuples() {
			if j := r.FindIdentical(u); j < 0 || !u.IdenticalOn(r.Tuple(j), all) {
				t.Fatalf("op %d: FindIdentical(row %d %s) = %d\n%s", op, i, u, j, r)
			}
			p := u.Clone()
			p[rng.Intn(3)] = randVal()
			if j, want := r.FindIdentical(p), scan(p); (j < 0) != (want < 0) || (j >= 0 && !p.IdenticalOn(r.Tuple(j), all)) {
				t.Fatalf("op %d: FindIdentical(%s) = %d, scan says %d\n%s", op, p, j, want, r)
			}
		}
	}
}

func TestInsertDeltaMatchesInsertErrors(t *testing.T) {
	dom := schema.MustDomain("d", "x", "y")
	s := schema.Uniform("R", []string{"A", "B"}, dom)
	r := New(s)
	r.MustInsertRow("x", "y")
	for _, tup := range []Tuple{
		{value.NewConst("x")},                       // arity
		{value.NewConst("zz"), value.NewConst("x")}, // domain
		{value.NewConst("x"), value.NewConst("y")},  // duplicate
	} {
		other := New(s)
		other.MustInsertRow("x", "y")
		_, errDelta := other.InsertDelta(tup)
		errPlain := r.Clone().Insert(tup)
		if errDelta == nil || errPlain == nil {
			t.Fatalf("both paths must reject %v (delta=%v plain=%v)", tup, errDelta, errPlain)
		}
		if errDelta.Error() != errPlain.Error() {
			t.Errorf("error drift for %v:\n delta: %v\n plain: %v", tup, errDelta, errPlain)
		}
	}
}

func TestDeleteDeltaSwapAndPop(t *testing.T) {
	dom := schema.IntDomain("d", "v", 9)
	s := schema.Uniform("R", []string{"A"}, dom)
	r := New(s)
	for i := 1; i <= 4; i++ {
		r.MustInsertRow(fmt.Sprintf("v%d", i))
	}
	if moved := r.DeleteDelta(1); moved != 3 {
		t.Fatalf("moved = %d, want 3", moved)
	}
	if r.Len() != 3 || r.Tuple(1)[0].Const() != "v4" {
		t.Fatalf("swap-and-pop should move the last row into the hole:\n%s", r)
	}
	if moved := r.DeleteDelta(2); moved != -1 {
		t.Fatalf("deleting the last row must report -1, got %d", moved)
	}
}

// TestViewCopyOnWrite: a View must never observe mutations applied after
// it was taken, through any mutation path.
func TestViewCopyOnWrite(t *testing.T) {
	dom := schema.IntDomain("d", "v", 9)
	s := schema.Uniform("R", []string{"A", "B"}, dom)
	r := New(s)
	r.MustInsertRow("v1", "v2")
	r.MustInsertRow("v3", "v4")

	v1 := r.View()
	r.SetCell(0, 0, value.NewConst("v5"))
	if got := v1.Tuple(0)[0].Const(); got != "v1" {
		t.Fatalf("view saw SetCell: %s", got)
	}
	if got := r.Tuple(0)[0].Const(); got != "v5" {
		t.Fatalf("relation lost SetCell: %s", got)
	}

	v2 := r.View()
	r.SetCellDelta(1, 1, value.NewConst("v6"))
	r.DeleteDelta(0)
	if v2.Len() != 2 || v2.Tuple(1)[1].Const() != "v4" || v2.Tuple(0)[0].Const() != "v5" {
		t.Fatalf("view saw delta mutations: len=%d t1=%s", v2.Len(), v2.Tuple(1))
	}

	v3 := r.View()
	r.MustInsertRow("v7", "v8")
	r.Delete(0)
	if v3.Len() != 1 || r.Len() != 1 {
		t.Fatalf("lens: view=%d rel=%d", v3.Len(), r.Len())
	}
	if v1.Version() >= v3.Version() {
		t.Fatalf("versions must be monotone: %d then %d", v1.Version(), v3.Version())
	}

	m := v2.Materialize()
	if m.Len() != 2 || m.Tuple(1)[1].Const() != "v4" {
		t.Fatalf("materialized view diverged:\n%s", m)
	}
}

func TestViewEachStopsEarly(t *testing.T) {
	dom := schema.IntDomain("d", "v", 9)
	s := schema.Uniform("R", []string{"A"}, dom)
	r := New(s)
	for i := 1; i <= 5; i++ {
		r.MustInsertRow(fmt.Sprintf("v%d", i))
	}
	seen := 0
	r.View().Each(func(i int, tup Tuple) bool {
		seen++
		return i < 2
	})
	if seen != 3 {
		t.Fatalf("Each visited %d rows, want 3", seen)
	}
}

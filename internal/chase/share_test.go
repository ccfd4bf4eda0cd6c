package chase

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"testing"

	"fdnull/internal/fd"
	"fdnull/internal/relation"
	"fdnull/internal/schema"
	"fdnull/internal/value"
	"fdnull/internal/workload"
)

// sameRow reports whether two tuples are one row in memory.
func sameRow(t, u relation.Tuple) bool { return len(t) > 0 && len(u) > 0 && &t[0] == &u[0] }

// rowsOf deep-copies a relation's rows.
func rowsOf(r *relation.Relation) []relation.Tuple {
	out := make([]relation.Tuple, r.Len())
	for i, t := range r.Tuples() {
		out[i] = t.Clone()
	}
	return out
}

// TestRunSharesUnchangedRows: a row the chase leaves as it was is the
// input's own tuple, a row it changes is private to the result, the
// result's allocator is at (max surviving mark)+1, and a
// SetCellDelta, DeleteDelta or InsertDelta on either relation afterwards
// never shows through to the other. The two relations are written by two
// goroutines at once, so under -race (make race) a write into a row the
// other still reads is reported.
func TestRunSharesUnchangedRows(t *testing.T) {
	_, fds, r := workload.Employees(400, 20, 0.2, 7)
	res, err := Run(r, fds, Options{})
	if err != nil {
		t.Fatal(err)
	}
	out := res.Relation
	var shared, changed []int
	for i, in := range r.Tuples() {
		got := out.Tuple(i)
		switch {
		case slices.Equal(in, got) && sameRow(in, got):
			shared = append(shared, i)
		case !slices.Equal(in, got) && !sameRow(in, got):
			changed = append(changed, i)
		default:
			t.Fatalf("row %d: input %v, result %v, one row in memory %v", i, in, got, sameRow(in, got))
		}
	}
	next := 1
	for _, u := range out.Tuples() {
		for _, v := range u {
			if v.IsNull() {
				next = max(next, v.Mark()+1)
			}
		}
	}
	if out.NextMark() != next {
		t.Errorf("the result's allocator is at %d, want (max surviving mark)+1 = %d", out.NextMark(), next)
	}
	if len(shared) < 4 || len(changed) < 4 {
		t.Fatalf("%d shared and %d changed rows; the fixture needs both", len(shared), len(changed))
	}
	for _, i := range changed {
		for _, u := range r.Tuples() {
			if sameRow(out.Tuple(i), u) {
				t.Fatalf("changed row %d is stored in the input", i)
			}
		}
	}

	// Each side, on rows the other side leaves alone: overwrite a shared
	// and a changed row, delete a shared row (swapping the last into its
	// slot), insert a fresh one — on the relation and, in step, on a deep
	// copy of its rows.
	write := func(rel *relation.Relation, want []relation.Tuple, side int) []relation.Tuple {
		for _, i := range []int{shared[side], changed[side]} {
			v := value.NewConst(fmt.Sprintf("s%d", 1+i))
			rel.SetCellDelta(i, 1, v)
			want[i][1] = v
		}
		i := shared[2+side]
		if rel.DeleteDelta(i) >= 0 {
			want[i] = want[len(want)-1]
		}
		want = want[:len(want)-1]
		row := relation.Tuple{value.NewConst(fmt.Sprintf("e%d", 401+side)), value.NewConst("s1"), value.NewConst("d1"), value.NewConst("full")}
		if _, err := rel.InsertDelta(row); err != nil {
			t.Error(err)
		}
		return append(want, row)
	}
	wantIn, wantOut := rowsOf(r), rowsOf(out)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); wantIn = write(r, wantIn, 0) }()
	go func() { defer wg.Done(); wantOut = write(out, wantOut, 1) }()
	wg.Wait()
	for name, c := range map[string]struct {
		rel  *relation.Relation
		want []relation.Tuple
	}{"input": {r, wantIn}, "result": {out, wantOut}} {
		if c.rel.Len() != len(c.want) {
			t.Fatalf("the %s holds %d rows, want %d", name, c.rel.Len(), len(c.want))
		}
		for i, want := range c.want {
			if got := c.rel.Tuple(i); !slices.Equal(got, want) {
				t.Errorf("the %s's row %d is %v, want %v: a write to the other relation showed through", name, i, got, want)
			}
		}
	}
}

// TestResultAllocatesChangedRows: the resolved relation costs cells for
// the rows the chase changed, not for every row. Two instances of n rows
// with the same symbols — half of them (a, ⊥) rows whose null the chase
// substitutes in one, and leaves alone in the other — differ in what
// building the result allocates by the changed rows' cells, and the
// instance the chase leaves alone allocates less than one n·p slab.
func TestResultAllocatesChangedRows(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	const n, p = 2000, 4
	s := schema.Uniform("R", []string{"A", "B", "C", "D"}, schema.IntDomain("d", "v", 2*n))
	fds := fd.MustParseSet(s, "A -> B")
	resultBytes := func(merge bool) float64 {
		r := relation.New(s)
		for j := 0; j < n/2; j++ {
			a := 2*j + 1 // the null row's A: its own value, or its pair's
			if merge {
				a = 2*j + 2
			}
			r.MustInsertRow(fmt.Sprintf("v%d", 2*j+2), fmt.Sprintf("v%d", j+1), "v1", "v1")
			r.MustInsertRow(fmt.Sprintf("v%d", a), "-", "v1", "v1")
		}
		c, err := newChaser(r, fds, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for c.passCongruence() {
		}
		const runs = 10
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for k := 0; k < runs; k++ {
			c.result(1)
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / runs
	}
	kept, merged := resultBytes(false), resultBytes(true)
	cells := float64(n / 2 * p * 32) // the changed rows' cells: n/2 rows of p 32-byte values
	t.Logf("result allocates %.0f B with no row changed, %.0f B with n/2 changed (their cells: %.0f B)", kept, merged, cells)
	if kept >= n*p*32 {
		t.Errorf("with no row changed the result allocates %.0f B, at least an n·p slab (%d B)", kept, n*p*32)
	}
	if d := merged - kept; d < cells || d > 1.1*cells {
		t.Errorf("changing n/2 rows adds %.0f B to the result, want the %.0f B of their cells (+10%%)", d, cells)
	}
}

package query

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"fdnull/internal/relation"
	"fdnull/internal/schema"
	"fdnull/internal/value"
)

// blockScheme is R(A, B, C): A is the probed attribute, and B and C have
// disjoint domains, so a mark shared between them admits no completion.
func blockScheme() *schema.Scheme {
	return schema.MustNew("R", []string{"A", "B", "C"}, []*schema.Domain{
		schema.MustDomain("da", "a1", "a2"),
		schema.MustDomain("db", "b1", "b2"),
		schema.MustDomain("dc", "c1", "c2"),
	})
}

// blockRelation builds an instance in which A = a1 has exactly n
// candidates (A = a1 or a null A), interleaved with A = a2 rows no probe
// of it returns. Candidate k is special when k is 0, 63, 64 or n-1: a `!`
// cell, a mark shared by B and C, or a null A (a Maybe answer of A = a1),
// as kind says. The other candidates alternate between B = b1 and B = b2.
func blockRelation(n int, kind string) *relation.Relation {
	s := blockScheme()
	r := relation.New(s)
	mark := 1
	for k := 0; k < n; k++ {
		t := relation.Tuple{value.NewConst("a1"), value.NewConst([]string{"b1", "b2"}[k%2]), value.NewConst("c1")}
		if k == 0 || k == 63 || k == 64 || k == n-1 {
			switch kind {
			case "nothing":
				t[1] = value.NewNothing()
			case "disjoint-mark":
				t[1], t[2] = value.NewNull(mark), value.NewNull(mark)
			case "maybe":
				t[0] = value.NewNull(mark)
			}
			mark++
		}
		r.InsertUnchecked(t)
		if k%3 == 0 {
			r.InsertUnchecked(relation.Tuple{value.NewConst("a2"), value.NewConst("b1"), value.NewConst("c2")})
		}
	}
	return r
}

// TestRunBlockBoundaries holds Plan.Run, which evaluates its candidates in
// blocks of runBlock, to the scan at every block edge: candidate sets of
// 0, 1, 63, 64, 65, 127, 128 and 129 rows with a contradictory tuple (a
// `!` cell, a mark spanning disjoint domains) or a Maybe answer at the
// first and last candidate and on both sides of the first edge. The
// results must be equal, order included.
func TestRunBlockBoundaries(t *testing.T) {
	preds := []Pred{
		Eq{Attr: 0, Const: "a1"},
		And{P: Eq{Attr: 0, Const: "a1"}, Q: Eq{Attr: 1, Const: "b1"}},
		And{P: Eq{Attr: 0, Const: "a1"}, Q: Not{P: Eq{Attr: 2, Const: "c2"}}},
		Or{P: Eq{Attr: 0, Const: "a1"}, Q: Eq{Attr: 1, Const: "b2"}},
	}
	for _, n := range []int{0, 1, 63, 64, 65, 127, 128, 129} {
		for _, kind := range []string{"nothing", "disjoint-mark", "maybe"} {
			r := blockRelation(n, kind)
			if pl := PlanPred(r, r, preds[0]); pl.root == nil || len(pl.root.rows) != n {
				t.Fatalf("n=%d %s: A = a1 plans %v, want %d candidates", n, kind, pl.root, n)
			}
			for _, p := range preds {
				pl := PlanPred(r, r, p)
				if pl.root == nil {
					t.Fatalf("n=%d %s: %v did not plan", n, kind, p)
				}
				if got, want := pl.Run(r), Select(r, p); !got.Equal(want) {
					t.Errorf("n=%d %s, %v:\nRun    sure %v maybe %v\nSelect sure %v maybe %v",
						n, kind, p, got.Sure, got.Maybe, want.Sure, want.Maybe)
				}
			}
		}
	}
}

// BenchmarkPlanRunStrided times the read kernel of kv-read's group query
// from a cold cache: KV(K, A, B) with K -> A and K -> B, 150,000 rows,
// B = b over a 256-value domain, so each group is 585 or 586 rows spaced
// 256 apart. The plans are built first. Before every timed iteration a
// sweep through a buffer larger than the last-level cache evicts the
// relation, so each candidate's tuple header, cells and constant bytes
// come from memory, as on a daemon whose cache other work has taken. An
// iteration is Plan.Run plus a read of every answered row's constants,
// the bytes a reply renders: Run alone would credit a loop that leaves
// those loads to the renderer. Run it with a fixed -benchtime (make
// bench-query uses 200x): every sweep costs far more than the iteration
// it precedes. ns/row is the time per candidate.
func BenchmarkPlanRunStrided(b *testing.B) {
	const rows, groups = 150_000, 256
	s := schema.MustNew("KV", []string{"K", "A", "B"}, []*schema.Domain{
		schema.IntDomain("key", "k", rows), schema.IntDomain("a", "a", 64), schema.IntDomain("b", "b", groups),
	})
	r := relation.New(s)
	for k := 0; k < rows; k++ {
		r.InsertUnchecked(relation.Tuple{
			value.NewConst(s.Domain(0).Values[k]),
			value.NewConst(s.Domain(1).Values[k%64]),
			value.NewConst(s.Domain(2).Values[k%groups]),
		})
	}
	plans := make([]*Plan, groups)
	for g := range plans {
		plans[g] = PlanPred(r, r, Eq{Attr: 2, Const: s.Domain(2).Values[g]})
	}
	sweep := make([]byte, llcBytes()*5/4)
	var fold byte
	candidates := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for j := 0; j < len(sweep); j += 64 {
			fold += sweep[j]
		}
		pl := plans[i%groups]
		candidates += len(pl.root.rows)
		b.StartTimer()
		res := pl.Run(r)
		if len(res.Sure) != len(pl.root.rows) {
			b.Fatalf("group %d: %d sure of %d candidates", i%groups, len(res.Sure), len(pl.root.rows))
		}
		for _, j := range res.Sure {
			for _, v := range r.Tuple(j) {
				c := v.Const()
				for k := 0; k < len(c); k++ {
					fold += c[k]
				}
			}
		}
	}
	runtime.KeepAlive(fold)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(candidates), "ns/row")
}

// llcBytes is the size of the last-level cache Linux reports for CPU 0,
// or 64 MiB when it reports none.
func llcBytes() int {
	for idx := 4; idx >= 2; idx-- {
		raw, err := os.ReadFile(fmt.Sprintf("/sys/devices/system/cpu/cpu0/cache/index%d/size", idx))
		if err != nil {
			continue
		}
		size := strings.TrimSpace(string(raw))
		unit := 1
		switch {
		case strings.HasSuffix(size, "K"):
			unit, size = 1<<10, strings.TrimSuffix(size, "K")
		case strings.HasSuffix(size, "M"):
			unit, size = 1<<20, strings.TrimSuffix(size, "M")
		}
		if n, err := strconv.Atoi(size); err == nil && n > 0 {
			return n * unit
		}
	}
	return 64 << 20
}

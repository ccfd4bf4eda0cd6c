package chase

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"fdnull/internal/fd"
	"fdnull/internal/relation"
	"fdnull/internal/schema"
	"fdnull/internal/workload"
)

// TestCongruenceUnderCollidingSignatures reruns the congruence-vs-naive
// differential and the Figure 5 / Theorem 4 cases with every signature
// hash colliding, so equalOn alone tells passCongruence's buckets apart,
// and holds the colliding engine to the hashed one result for result.
func TestCongruenceUnderCollidingSignatures(t *testing.T) {
	hashed := randomChases(t)
	sigMask = 0
	defer func() { sigMask = ^uint64(0) }()
	t.Run("NaiveAndCongruenceAgree", TestNaiveAndCongruenceAgree_Random)
	t.Run("AgreesWithBruteForce", TestChase_AgreesWithBruteForce_Random)
	t.Run("ChurchRosserExtended", TestChase_ChurchRosserExtended)
	t.Run("SmallDomainDivergence", TestSmallDomainDivergence)
	t.Run("Section6ChainDetection", TestSection6ChainDetection)
	t.Run("Idempotence", TestIdempotence)
	t.Run("PassesBounded", TestPassesBounded)
	t.Run("SameAsHashed", func(t *testing.T) {
		for i, got := range randomChases(t) {
			want := hashed[i]
			if got.Relation.String() != want.Relation.String() || got.Consistent != want.Consistent ||
				got.Applications != want.Applications || !reflect.DeepEqual(got.NECs, want.NECs) {
				t.Fatalf("instance %d: colliding signatures give\n%s%v %d %v\nhashed give\n%s%v %d %v", i,
					got.Relation, got.Consistent, got.Applications, got.NECs,
					want.Relation, want.Consistent, want.Applications, want.NECs)
			}
		}
	})
}

// randomChases chases a fixed series of random instances, big enough for
// classes to merge under tuples already bucketed in the same pass.
func randomChases(t *testing.T) []*Result {
	rng := rand.New(rand.NewSource(2609))
	dom := schema.IntDomain("d", "v", 4)
	s := schema.Uniform("R", []string{"A", "B", "C", "D"}, dom)
	var out []*Result
	for trial := 0; trial < 150; trial++ {
		var fds []fd.FD
		for i := 0; i < 1+rng.Intn(3); i++ {
			x := schema.AttrSet(rng.Intn(15) + 1)
			if y := schema.AttrSet(rng.Intn(15) + 1).Diff(x); !y.Empty() {
				fds = append(fds, fd.New(x, y))
			}
		}
		r := relation.New(s)
		for i := 0; i < 2+rng.Intn(24); i++ {
			row := make([]string, 4)
			for j := range row {
				switch rng.Intn(4) {
				case 0:
					row[j] = "-"
				case 1:
					row[j] = fmt.Sprintf("-%d", 1+rng.Intn(6))
				default:
					row[j] = dom.Values[rng.Intn(dom.Size())]
				}
			}
			_ = r.InsertRow(row...)
		}
		res, err := Run(r, fds, Options{})
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, res)
	}
	return out
}

// TestCongruencePassAllocsPerFD: a congruence pass allocates per FD (its
// attribute lists), never per tuple — the bucket table is reused across
// FDs and passes, and a signature is hashed, not printed.
func TestCongruencePassAllocsPerFD(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	s := schema.Uniform("R", []string{"A", "B", "C"}, schema.IntDomain("d", "v", 2000))
	fds := fd.MustParseSet(s, "A -> B; B -> C")
	pass := func(n int) float64 {
		r := relation.New(s)
		for i := 0; i < n; i++ {
			r.MustInsertRow(fmt.Sprintf("v%d", 1+i/4), "-", fmt.Sprintf("v%d", 1+i))
		}
		c, err := newChaser(r, fds, Options{})
		if err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(20, func() { c.passCongruence() })
	}
	small, large := pass(200), pass(2000)
	if small != large || small > float64(2*len(fds)) {
		t.Errorf("congruence pass allocates %v at n=200 and %v at n=2000; want the same, at most %d (two per FD)",
			small, large, 2*len(fds))
	}
}

// TestRunAllocsPerRow: a whole chase — symbol tables, passes, resolved
// rows, NEC report — allocates per symbol table and per class, not per
// row: on the employee workload with a fifth of its salary and contract
// cells null, going from 200 to 2,000 rows adds fewer than one allocation
// per ten rows.
func TestRunAllocsPerRow(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	run := func(n int) float64 {
		_, fds, r := workload.Employees(n, n/20, 0.2, 7)
		return testing.AllocsPerRun(5, func() {
			if _, err := Run(r, fds, Options{}); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := run(200), run(2000)
	t.Logf("chase.Run allocates %.0f at n=200, %.0f at n=2000", small, large)
	if large-small >= (2000-200)/10 {
		t.Errorf("chase.Run allocates %v at n=200 and %v at n=2000: %.2f per added row, want < 0.1", small, large, (large-small)/1800)
	}
}

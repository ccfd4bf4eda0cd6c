package discover

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"fdnull/internal/relation"
	"fdnull/internal/schema"
	"fdnull/internal/testfds"
	"fdnull/internal/workload"
)

// TestDiscoverDifferential is the engine-agreement property test: on
// randomized workloads — constants, fresh nulls, shared-mark nulls, and
// occasionally `nothing` cells — the partition engine must return an
// FD-for-FD identical result (same dependencies, same order) as the
// naive TEST-FDs engine, under both conventions, at every MaxLHS, and
// for any worker count. Short mode (the CI smoke) runs a reduced trial
// count and the two smallest workload.Config cells.
func TestDiscoverDifferential(t *testing.T) {
	trials := 150
	if testing.Short() {
		trials = 30
	}
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < trials; trial++ {
		p := 2 + rng.Intn(4)
		domSize := 2 + rng.Intn(4)
		dom := schema.IntDomain("d", "v", domSize)
		names := make([]string, p)
		for i := range names {
			names[i] = string(rune('A' + i))
		}
		s := schema.Uniform("R", names, dom)
		r := relation.New(s)
		for i, n := 0, rng.Intn(30); i < n; i++ {
			row := make([]string, p)
			for j := range row {
				switch roll := rng.Float64(); {
				case roll < 0.15:
					row[j] = "-"
				case roll < 0.22:
					row[j] = fmt.Sprintf("-%d", 1+rng.Intn(3))
				case roll < 0.25 && trial%3 == 0:
					row[j] = "!"
				default:
					row[j] = dom.Values[rng.Intn(domSize)]
				}
			}
			_ = r.InsertRow(row...) // syntactic duplicates skipped
		}
		maxLHS := rng.Intn(p) // 0 = unbounded
		for _, conv := range []testfds.Convention{testfds.Strong, testfds.Weak} {
			naive, err := Run(r, Options{MaxLHS: maxLHS, Convention: conv, Engine: EngineNaive})
			if err != nil {
				t.Fatal(err)
			}
			part, err := Run(r, Options{
				MaxLHS:     maxLHS,
				Convention: conv,
				Engine:     EnginePartition,
				Workers:    1 + rng.Intn(4),
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(naive) != len(part) {
				t.Fatalf("trial %d conv %v maxLHS %d: naive found %d FDs, partition %d\nnaive: %v\npartition: %v\n%s",
					trial, conv, maxLHS, len(naive), len(part), naive, part, r)
			}
			for i := range naive {
				if naive[i] != part[i] {
					t.Fatalf("trial %d conv %v maxLHS %d: FD %d differs: naive %s, partition %s\n%s",
						trial, conv, maxLHS, i, naive[i].Format(s), part[i].Format(s), r)
				}
			}
		}
	}
	// Generated instances at the size of BenchmarkDiscover's acceptance
	// point, MaxLHS = 2: an n-sweep at p = 8 and a p-sweep at n = 500.
	sizes := [][2]int{{100, 6}, {250, 6}}
	if !testing.Short() {
		sizes = append(sizes, [][2]int{{250, 8}, {500, 8}, {1000, 8}, {2000, 8}, {500, 4}, {500, 6}, {500, 10}}...)
	}
	for _, np := range sizes {
		t.Run(fmt.Sprintf("workload/n=%d,p=%d", np[0], np[1]), func(t *testing.T) {
			cfg := workload.Config{
				Seed: int64(np[0] + np[1]), Tuples: np[0], Attrs: np[1],
				DomainSize: 16, NullDensity: 0.1, GroupBias: 0.5,
			}
			r := cfg.Instance(cfg.Scheme())
			for _, conv := range []testfds.Convention{testfds.Strong, testfds.Weak} {
				naive, err := Run(r, Options{MaxLHS: 2, Convention: conv, Engine: EngineNaive})
				if err != nil {
					t.Fatal(err)
				}
				part, err := Run(r, Options{MaxLHS: 2, Convention: conv, Workers: runtime.GOMAXPROCS(0)})
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(naive, part) {
					t.Fatalf("n=%d p=%d conv %v: naive found %d FDs, partition %d, or not the same ones in the same order\nnaive: %v\npartition: %v",
						np[0], np[1], conv, len(naive), len(part), naive, part)
				}
			}
		})
	}
}

// Package workload generates deterministic synthetic instances and FD sets
// for the experiment harness and benchmarks.
//
// The paper's complexity claims (Section 6 and Figure 3) are asymptotic;
// the harness verifies their *shape* on controlled workloads. Generators
// are seeded and reproducible. Parameters follow the paper's variables:
// n (tuples), p (attributes), d (domain size), |F| (dependencies), plus a
// null density ρ the paper discusses qualitatively.
package workload

import (
	"fmt"
	"math/rand"

	"fdnull/internal/fd"
	"fdnull/internal/relation"
	"fdnull/internal/schema"
	"fdnull/internal/value"
)

// Config describes a synthetic workload.
type Config struct {
	Seed        int64
	Tuples      int     // n
	Attrs       int     // p
	DomainSize  int     // d, values per attribute domain
	NullDensity float64 // ρ, probability a cell is null
	// GroupBias ∈ [0,1): probability that a tuple reuses the previous
	// tuple's X-prefix values, creating the duplicate X-groups FD checks
	// and chases feed on. 0 means fully uniform.
	GroupBias float64
	// SharedMarkRate is the probability that a generated null reuses an
	// existing mark (column-local), exercising NEC classes. 0 disables.
	SharedMarkRate float64
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Tuples < 0 || c.Attrs <= 0 || c.Attrs > schema.MaxAttrs {
		return fmt.Errorf("workload: bad shape n=%d p=%d", c.Tuples, c.Attrs)
	}
	if c.DomainSize <= 0 {
		return fmt.Errorf("workload: domain size must be positive")
	}
	if c.NullDensity < 0 || c.NullDensity > 1 {
		return fmt.Errorf("workload: null density %f out of range", c.NullDensity)
	}
	if c.GroupBias < 0 || c.GroupBias >= 1 {
		return fmt.Errorf("workload: group bias %f out of range", c.GroupBias)
	}
	if c.SharedMarkRate < 0 || c.SharedMarkRate > 1 {
		return fmt.Errorf("workload: shared mark rate %f out of range", c.SharedMarkRate)
	}
	return nil
}

// attrNames generates A, B, …, Z, A1, B1, … names.
func attrNames(p int) []string {
	out := make([]string, p)
	for i := range out {
		if i < 26 {
			out[i] = string(rune('A' + i))
		} else {
			out[i] = fmt.Sprintf("%c%d", rune('A'+i%26), i/26)
		}
	}
	return out
}

// Scheme builds the uniform scheme for a config.
func (c Config) Scheme() *schema.Scheme {
	return schema.Uniform("W", attrNames(c.Attrs),
		schema.IntDomain("dom", "v", c.DomainSize))
}

// Instance generates the relation. Duplicate tuples are retried a bounded
// number of times, so very tight configurations may come up short; the
// returned instance has at most n tuples.
func (c Config) Instance(s *schema.Scheme) *relation.Relation {
	rng := rand.New(rand.NewSource(c.Seed))
	r := relation.New(s)
	dom := s.Domain(0)
	// Column-local mark pools for SharedMarkRate.
	pools := make([][]int, c.Attrs)
	var prev relation.Tuple
	for len(r.Tuples()) < c.Tuples {
		inserted := false
		for attempt := 0; attempt < 16; attempt++ {
			t := make(relation.Tuple, c.Attrs)
			reuse := prev != nil && rng.Float64() < c.GroupBias
			for a := 0; a < c.Attrs; a++ {
				switch {
				case reuse && a < c.Attrs/2:
					t[a] = prev[a]
					if t[a].IsNull() {
						// Re-marking keeps nulls independent across rows.
						t[a] = r.FreshNull()
					}
				case rng.Float64() < c.NullDensity:
					if c.SharedMarkRate > 0 && len(pools[a]) > 0 &&
						rng.Float64() < c.SharedMarkRate {
						t[a] = value.NewNull(pools[a][rng.Intn(len(pools[a]))])
					} else {
						v := r.FreshNull()
						pools[a] = append(pools[a], v.Mark())
						t[a] = v
					}
				default:
					t[a] = value.NewConst(dom.Values[rng.Intn(dom.Size())])
				}
			}
			if err := r.Insert(t); err == nil {
				prev = t
				inserted = true
				break
			}
		}
		if !inserted {
			break // domain exhausted; return what we have
		}
	}
	return r
}

// ChainFDs returns A→B, B→C, … — the shape of the Section 6 example.
func ChainFDs(s *schema.Scheme) []fd.FD {
	var out []fd.FD
	for i := 0; i+1 < s.Arity(); i++ {
		out = append(out, fd.New(
			schema.NewAttrSet(schema.Attr(i)),
			schema.NewAttrSet(schema.Attr(i+1))))
	}
	return out
}

// StarFDs returns A→B, A→C, … — a single determinant.
func StarFDs(s *schema.Scheme) []fd.FD {
	var out []fd.FD
	for i := 1; i < s.Arity(); i++ {
		out = append(out, fd.New(
			schema.NewAttrSet(0),
			schema.NewAttrSet(schema.Attr(i))))
	}
	return out
}

// KeyFD returns the single FD A → rest (a candidate-key dependency, the
// "BCNF with one key" case of Figure 3's Additional Assumptions).
func KeyFD(s *schema.Scheme) []fd.FD {
	return []fd.FD{fd.New(schema.NewAttrSet(0), s.All().Remove(0))}
}

// RandomFDs generates k random nontrivial FDs with LHS arity up to
// maxLHS, deterministic in seed.
func RandomFDs(s *schema.Scheme, k, maxLHS int, seed int64) []fd.FD {
	rng := rand.New(rand.NewSource(seed))
	var out []fd.FD
	for len(out) < k {
		var x schema.AttrSet
		for x.Len() < 1+rng.Intn(maxLHS) {
			x = x.Add(schema.Attr(rng.Intn(s.Arity())))
		}
		y := schema.NewAttrSet(schema.Attr(rng.Intn(s.Arity()))).Diff(x)
		if y.Empty() {
			continue
		}
		out = append(out, fd.New(x, y))
	}
	return out
}

// WriteHeavy generates the store-maintenance workload: a p=8 scheme
//
//	G  B  C  D  E  U1 U2 U3
//
// guarded by the two-level FD chain G→B,C; B→D; C→E, with the first five
// columns functions of a group id g = i mod groups (so every generated
// tuple is consistent with the base by construction), U1 a unique row id
// (tuples never collide), U2/U3 unconstrained noise, and nullDensity
// applied to the dependent D/E columns — the "acquired later" attributes
// whose forced substitution the store's NS-propagation performs. The
// returned gen(i) produces the i-th tuple as cell strings (i < n is the
// base; i ≥ n generates fresh insertable rows for write benchmarks).
func WriteHeavy(n, groups int, nullDensity float64, seed int64) (*schema.Scheme, []fd.FD, *relation.Relation, func(i int) []string) {
	// Per-column domains stay tight; one shared domain big enough for
	// every generated constant would be wasteful to enumerate.
	gDom := schema.IntDomain("group", "g", groups)
	bDom := schema.IntDomain("bval", "b", groups)
	cDom := schema.IntDomain("cval", "c", groups)
	dDom := schema.IntDomain("dval", "d", 13)
	eDom := schema.IntDomain("eval", "e", 11)
	uDom := schema.IntDomain("uid", "u", 8*n+groups+64)
	wDom := schema.IntDomain("wval", "w", 37)
	xDom := schema.IntDomain("xval", "x", 17)
	s := schema.MustNew("W8",
		[]string{"G", "B", "C", "D", "E", "U1", "U2", "U3"},
		[]*schema.Domain{gDom, bDom, cDom, dDom, eDom, uDom, wDom, xDom})
	fds := fd.MustParseSet(s, "G -> B,C; B -> D; C -> E")
	rng := rand.New(rand.NewSource(seed))
	gen := func(i int) []string {
		g := i % groups
		row := []string{
			fmt.Sprintf("g%d", g+1),
			fmt.Sprintf("b%d", g+1),
			fmt.Sprintf("c%d", g+1),
			fmt.Sprintf("d%d", g%13+1),
			fmt.Sprintf("e%d", g%11+1),
			fmt.Sprintf("u%d", i+1),
			fmt.Sprintf("w%d", i%37+1),
			fmt.Sprintf("x%d", i%17+1),
		}
		if nullDensity > 0 {
			if rng.Float64() < nullDensity {
				row[3] = "-"
			}
			if rng.Float64() < nullDensity {
				row[4] = "-"
			}
		}
		return row
	}
	r := relation.New(s)
	for i := 0; i < n; i++ {
		r.MustInsertRow(gen(i)...)
	}
	return s, fds, r, gen
}

// TxnWriteSet builds one conflict-free write-set of k rows over the
// WriteHeavy scheme, all landing in partition group g: roughly half
// the determined cells (B, C, D, E) are nulls that the commit's
// propagation resolves against the group's constants — carried by the
// base instance and by the write-set's own constant-bearing rows — and
// the U1 ids draw from *nextUID so successive write-sets never collide.
// This is the "insert a department's worth of tuples whose nulls
// resolve against each other" workload of the transactional store's
// tests and benchmarks (TestTxnLargeBatchMatchesOracle, BenchmarkStoreTxn*).
func TxnWriteSet(rng *rand.Rand, g, k int, nextUID *int) [][]string {
	rows := make([][]string, k)
	orNull := func(c string) string {
		if rng.Intn(2) == 0 {
			return "-"
		}
		return c
	}
	for j := range rows {
		uid := *nextUID
		*nextUID++
		rows[j] = []string{
			fmt.Sprintf("g%d", g+1),
			orNull(fmt.Sprintf("b%d", g+1)),
			orNull(fmt.Sprintf("c%d", g+1)),
			orNull(fmt.Sprintf("d%d", g%13+1)),
			orNull(fmt.Sprintf("e%d", g%11+1)),
			fmt.Sprintf("u%d", uid),
			fmt.Sprintf("w%d", uid%37+1),
			fmt.Sprintf("x%d", uid%17+1),
		}
	}
	return rows
}

// KV returns a key-value serving scheme, the one the daemon's wire tests
// and the WAL tests build their stores on: a unique constant key K
// determining two payload attributes,
//
//	K  A  B    with  K -> A; K -> B
//
// sized for a key space of `keys` distinct K constants, plus the
// canonical row function: row(k) is the one well-formed tuple for
// 0-based key index k, so any subset of the key space has exactly one
// consistent instance and a load run's final state is decided by WHICH
// keys were accepted, never by op interleaving. K is the natural shard
// key (it is every FD's LHS).
func KV(keys int) (*schema.Scheme, []fd.FD, func(k int) []string) {
	s := schema.MustNew("KV",
		[]string{"K", "A", "B"},
		[]*schema.Domain{
			schema.IntDomain("key", "k", keys),
			schema.IntDomain("alpha", "a", 64),
			schema.IntDomain("beta", "b", 64),
		})
	fds := fd.MustParseSet(s, "K -> A; K -> B")
	row := func(k int) []string {
		return []string{
			fmt.Sprintf("k%d", k+1),
			fmt.Sprintf("a%d", k%64+1),
			fmt.Sprintf("b%d", k%64+1),
		}
	}
	return s, fds, row
}

// Employees generates an employee-style instance over the Figure 1.1
// scheme shape with nEmp employees spread over nDept departments; null
// density applies to the salary and contract columns (the "acquired
// later" attributes of the paper's motivation).
func Employees(nEmp, nDept int, nullDensity float64, seed int64) (*schema.Scheme, []fd.FD, *relation.Relation) {
	s := schema.MustNew("R",
		[]string{"E#", "SL", "D#", "CT"},
		[]*schema.Domain{
			schema.IntDomain("emp#", "e", nEmp+4),
			schema.IntDomain("salary", "s", nEmp+4),
			schema.IntDomain("dept#", "d", nDept),
			schema.MustDomain("contract", "full", "part"),
		})
	fds := fd.MustParseSet(s, "E# -> SL,D#; D# -> CT")
	rng := rand.New(rand.NewSource(seed))
	r := relation.New(s)
	// Department contract types, fixed so D# → CT is satisfiable.
	ct := make([]string, nDept)
	for i := range ct {
		if rng.Intn(2) == 0 {
			ct[i] = "full"
		} else {
			ct[i] = "part"
		}
	}
	for e := 1; e <= nEmp; e++ {
		d := rng.Intn(nDept)
		row := make([]string, 4)
		row[0] = fmt.Sprintf("e%d", e)
		if rng.Float64() < nullDensity {
			row[1] = "-"
		} else {
			row[1] = fmt.Sprintf("s%d", 1+rng.Intn(nEmp+4))
		}
		row[2] = fmt.Sprintf("d%d", d+1)
		if rng.Float64() < nullDensity {
			row[3] = "-"
		} else {
			row[3] = ct[d]
		}
		r.MustInsertRow(row...)
	}
	return s, fds, r
}

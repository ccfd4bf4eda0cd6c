package chase

import (
	"math/rand"
	"strings"
	"testing"

	"fdnull/internal/fd"
	"fdnull/internal/relation"
	"fdnull/internal/schema"
)

// satisfyingCompletions renders the set of completions of r (on all
// attributes) that classically satisfy every FD, as a canonical string
// set. Used to verify that the chase is information-preserving.
func satisfyingCompletions(t *testing.T, r *relation.Relation, fds []fd.FD) map[string]bool {
	t.Helper()
	comps, err := relation.RelationCompletions(r, r.Scheme().All())
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]bool{}
	for _, c := range comps {
		ok := true
		for _, f := range fds {
			if !classicalHolds(f, c) {
				ok = false
				break
			}
		}
		if ok {
			out[canonical(c)] = true
		}
	}
	return out
}

// classicalHolds re-implements the null-free check locally to keep the
// test independent of the eval package.
func classicalHolds(f fd.FD, r *relation.Relation) bool {
	ts := r.Tuples()
	for i := range ts {
		for j := i + 1; j < len(ts); j++ {
			if ts[i].ConstEqOn(ts[j], f.X) && !ts[i].ConstEqOn(ts[j], f.Y) {
				return false
			}
		}
	}
	return true
}

// canonical renders a complete instance as a sorted row-string set.
func canonical(r *relation.Relation) string {
	rows := make([]string, r.Len())
	for i, t := range r.Tuples() {
		rows[i] = t.String()
	}
	// Instances are sets: order-insensitive canonical form.
	for i := range rows {
		for j := i + 1; j < len(rows); j++ {
			if rows[j] < rows[i] {
				rows[i], rows[j] = rows[j], rows[i]
			}
		}
	}
	return strings.Join(rows, "|")
}

// TestChasePreservesSatisfyingCompletions is the information-preservation
// invariant behind the NS-rules: substituting a null with "the only value
// that a user can insert without the creation of an inconsistency" must
// not change the set of completions that satisfy F. We verify exact
// set-equality between the satisfying completions of the input and of the
// chased instance, on random small instances.
func TestChasePreservesSatisfyingCompletions(t *testing.T) {
	rng := rand.New(rand.NewSource(64))
	dom := schema.IntDomain("d", "v", 3)
	s := schema.Uniform("R", []string{"A", "B", "C"}, dom)
	fdPool := [][]fd.FD{
		fd.MustParseSet(s, "A -> B"),
		fd.MustParseSet(s, "A -> B; B -> C"),
		fd.MustParseSet(s, "A,B -> C"),
	}
	for trial := 0; trial < 250; trial++ {
		fds := fdPool[rng.Intn(len(fdPool))]
		r := relation.New(s)
		n := 1 + rng.Intn(3)
		nulls := 0
		for i := 0; i < n; i++ {
			row := make([]string, 3)
			for j := range row {
				if rng.Intn(4) == 0 && nulls < 5 {
					nulls++
					row[j] = "-"
				} else {
					row[j] = dom.Values[rng.Intn(dom.Size())]
				}
			}
			_ = r.InsertRow(row...)
		}
		if r.Len() == 0 {
			continue
		}
		res, err := Run(r, fds, Options{})
		if err != nil {
			t.Fatal(err)
		}
		before := satisfyingCompletions(t, r, fds)
		if !res.Consistent {
			if len(before) != 0 {
				// Permitted only under domain exhaustion (the paper's
				// large-domain caveat) — but an inconsistent chase means
				// the FDs force two distinct constants equal, which no
				// completion can satisfy, so this must be empty.
				t.Fatalf("trial %d: inconsistent chase but %d satisfying completions:\n%s",
					trial, len(before), r)
			}
			continue
		}
		after := satisfyingCompletions(t, res.Relation, fds)
		if len(before) != len(after) {
			t.Fatalf("trial %d: completions %d -> %d\ninput:\n%s\nchased:\n%s",
				trial, len(before), len(after), r, res.Relation)
		}
		for k := range before {
			if !after[k] {
				t.Fatalf("trial %d: satisfying completion lost: %s", trial, k)
			}
		}
	}
}

// TestXSubPreservesSatisfyingCompletions extends the invariant to the
// Section 4 X-side rules: they too substitute only forced values.
func TestXSubPreservesSatisfyingCompletions(t *testing.T) {
	rng := rand.New(rand.NewSource(65))
	s := schema.MustNew("R", []string{"A", "B", "C"}, []*schema.Domain{
		schema.MustDomain("domA", "a1", "a2"),
		schema.IntDomain("domB", "b", 2),
		schema.IntDomain("domC", "c", 3),
	})
	fds := []fd.FD{fd.MustParse(s, "A,B -> C")}
	for trial := 0; trial < 250; trial++ {
		r := relation.New(s)
		n := 1 + rng.Intn(4)
		nulls := 0
		for i := 0; i < n; i++ {
			row := make([]string, 3)
			for j, d := range []*schema.Domain{s.Domain(0), s.Domain(1), s.Domain(2)} {
				if rng.Intn(5) == 0 && nulls < 4 {
					nulls++
					row[j] = "-"
				} else {
					row[j] = d.Values[rng.Intn(d.Size())]
				}
			}
			_ = r.InsertRow(row...)
		}
		if r.Len() == 0 {
			continue
		}
		out, subs, err := ApplyXSubstitutions(r, fds)
		if err != nil {
			t.Fatal(err)
		}
		if len(subs) == 0 {
			continue
		}
		before := satisfyingCompletions(t, r, fds)
		after := satisfyingCompletions(t, out, fds)
		if len(before) != len(after) {
			t.Fatalf("trial %d: X-substitution changed satisfying completions %d -> %d\ninput:\n%s\nafter:\n%s\nsubs: %v",
				trial, len(before), len(after), r, out, subs)
		}
	}
}

// TestChaseMonotone: the chased instance refines the input in the
// approximation ordering — every original tuple approximates its chased
// counterpart (nulls only ever gain information).
func TestChaseMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(66))
	dom := schema.IntDomain("d", "v", 4)
	s := schema.Uniform("R", []string{"A", "B", "C"}, dom)
	fds := fd.MustParseSet(s, "A -> B; B -> C")
	for trial := 0; trial < 200; trial++ {
		r := relation.New(s)
		n := 1 + rng.Intn(5)
		for i := 0; i < n; i++ {
			row := make([]string, 3)
			for j := range row {
				if rng.Intn(3) == 0 {
					row[j] = "-"
				} else {
					row[j] = dom.Values[rng.Intn(dom.Size())]
				}
			}
			_ = r.InsertRow(row...)
		}
		if r.Len() == 0 {
			continue
		}
		res, err := Run(r, fds, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < r.Len(); i++ {
			orig, chased := r.Tuple(i), res.Relation.Tuple(i)
			for a := 0; a < s.Arity(); a++ {
				o, c := orig[a], chased[a]
				// null ⊑ anything; a constant may only stay itself or
				// become nothing (poisoned).
				if o.IsConst() && c.IsConst() && o.Const() != c.Const() {
					t.Fatalf("trial %d: constant rewritten %v -> %v", trial, o, c)
				}
				if o.IsConst() && c.IsNull() {
					t.Fatalf("trial %d: information lost %v -> %v", trial, o, c)
				}
			}
		}
	}
}

package normalize

import (
	"fmt"

	"fdnull/internal/relation"
	"fdnull/internal/schema"
)

// NaturalJoin recombines component instances into a universal-scheme
// instance by the classical natural join: tuples of different fragments
// merge when they carry identical constants on every shared attribute.
//
// The join is defined for *complete* (null-free) fragments — it is the
// operation the lossless-join property (tableau chase) speaks about:
// projecting a satisfying instance and joining the fragments back must
// reproduce it exactly. For fragments with nulls, PadToUniversal + the
// chase is the appropriate recombination (joining on nulls is a
// three-valued matter the paper routes through the chase instead).
func NaturalJoin(universal *schema.Scheme, fragments []*relation.Relation, components []schema.AttrSet) (*relation.Relation, error) {
	if len(fragments) == 0 {
		return nil, fmt.Errorf("normalize: nothing to join")
	}
	if len(fragments) != len(components) {
		return nil, fmt.Errorf("normalize: %d fragments but %d components", len(fragments), len(components))
	}
	for i, f := range fragments {
		if f.HasNulls() || f.HasNothing() {
			return nil, fmt.Errorf("normalize: fragment %d contains nulls; use PadToUniversal + chase", i)
		}
		if f.Scheme().Arity() != components[i].Len() {
			return nil, fmt.Errorf("normalize: fragment %d arity %d does not match component size %d",
				i, f.Scheme().Arity(), components[i].Len())
		}
	}
	// Partial tuples over the universal scheme: nil cells are unset.
	type partial []*string
	current := []partial{make(partial, universal.Arity())}
	for fi, frag := range fragments {
		cols := components[fi].Attrs()
		var next []partial
		for _, base := range current {
			for ti := 0; ti < frag.Len(); ti++ {
				row := frag.Tuple(ti)
				merged := make(partial, len(base))
				copy(merged, base)
				ok := true
				for ci, a := range cols {
					c := row[ci].Const()
					if merged[a] != nil && *merged[a] != c {
						ok = false
						break
					}
					cc := c
					merged[a] = &cc
				}
				if ok {
					next = append(next, merged)
				}
			}
		}
		current = next
	}
	out := relation.New(universal)
	seen := make(map[string]bool, len(current))
	for _, p := range current {
		row := make([]string, universal.Arity())
		for i, c := range p {
			if c == nil {
				return nil, fmt.Errorf("normalize: components do not cover attribute %s",
					universal.AttrName(schema.Attr(i)))
			}
			row[i] = *c
		}
		// The join is a set: drop duplicates here, so that any error the
		// insert still returns (a fragment constant outside the universal
		// scheme's domain) is a real one.
		key := fmt.Sprintf("%q", row)
		if seen[key] {
			continue
		}
		seen[key] = true
		if err := out.InsertRow(row...); err != nil {
			return nil, fmt.Errorf("normalize: joined row: %w", err)
		}
	}
	return out, nil
}

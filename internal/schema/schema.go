// Package schema defines relation schemes: named attributes over finite
// domains, and attribute sets as bitsets.
//
// Finite domains with *known sizes* are a load-bearing assumption of the
// paper (Section 4: "Domains are finite and are assumed known"): the false
// case [F2] of Proposition 1 and condition (2) of the null-substitution
// rules both trigger only when a relation exhausts the domain of an
// attribute. The scheme therefore records a Domain for every attribute.
package schema

import (
	"fmt"
	"math/bits"
	"slices"
	"sort"
	"strconv"
	"strings"

	"fdnull/internal/value"
)

// MaxAttrs is the maximum number of attributes in a scheme; attribute sets
// are single 64-bit words.
const MaxAttrs = 64

// Attr identifies an attribute by its position in the scheme.
type Attr int

// AttrSet is a set of attributes represented as a bitmask, supporting the
// X, Y, Z of functional dependencies.
type AttrSet uint64

// NewAttrSet builds a set from individual attributes.
func NewAttrSet(attrs ...Attr) AttrSet {
	var s AttrSet
	for _, a := range attrs {
		s = s.Add(a)
	}
	return s
}

// Add returns s ∪ {a}.
func (s AttrSet) Add(a Attr) AttrSet {
	if a < 0 || a >= MaxAttrs {
		panic(fmt.Sprintf("schema: attribute %d out of range", a))
	}
	return s | 1<<uint(a)
}

// Remove returns s \ {a}.
func (s AttrSet) Remove(a Attr) AttrSet { return s &^ (1 << uint(a)) }

// Has reports a ∈ s.
func (s AttrSet) Has(a Attr) bool {
	return a >= 0 && a < MaxAttrs && s&(1<<uint(a)) != 0
}

// Union returns s ∪ t.
func (s AttrSet) Union(t AttrSet) AttrSet { return s | t }

// Intersect returns s ∩ t.
func (s AttrSet) Intersect(t AttrSet) AttrSet { return s & t }

// Diff returns s \ t.
func (s AttrSet) Diff(t AttrSet) AttrSet { return s &^ t }

// SubsetOf reports s ⊆ t.
func (s AttrSet) SubsetOf(t AttrSet) bool { return s&^t == 0 }

// Disjoint reports s ∩ t = ∅.
func (s AttrSet) Disjoint(t AttrSet) bool { return s&t == 0 }

// Empty reports s = ∅.
func (s AttrSet) Empty() bool { return s == 0 }

// Len returns |s|.
func (s AttrSet) Len() int { return bits.OnesCount64(uint64(s)) }

// Attrs lists the members in ascending order.
func (s AttrSet) Attrs() []Attr {
	out := make([]Attr, 0, s.Len())
	for v := uint64(s); v != 0; v &= v - 1 {
		out = append(out, Attr(bits.TrailingZeros64(v)))
	}
	return out
}

// ForEach calls fn for each member in ascending order.
func (s AttrSet) ForEach(fn func(Attr)) {
	for v := uint64(s); v != 0; v &= v - 1 {
		fn(Attr(bits.TrailingZeros64(v)))
	}
}

// Domain is a finite attribute domain with known, enumerable values.
// The order of Values is the canonical enumeration order used when
// generating completions.
//
// The domain owns its constants: every path that makes a constant cell
// resident in a relation stores the Values entry Canonical returns, so
// stored cells share the domain's strings. Do not modify Values: an
// IntDomain computes membership from its prefix and size, and a large
// NewDomain hashes into a map of positions. A struct literal scans.
type Domain struct {
	Name   string
	Values []string

	isInt  bool             // an IntDomain: Values[k-1] is prefix+k
	prefix string           // an IntDomain's prefix
	pos    map[string]int32 // a NewDomain of 16+ values: position+1 per value
}

// NewDomain constructs a domain. Values must be non-empty and distinct,
// and each must read back as itself in the cell notation (value.Parse):
// there "!" and any text starting with "-" are not constants.
func NewDomain(name string, values ...string) (*Domain, error) {
	if len(values) == 0 {
		return nil, fmt.Errorf("schema: domain %q must have at least one value", name)
	}
	pos := make(map[string]int32, len(values))
	for i, v := range values {
		if pos[v] != 0 {
			return nil, fmt.Errorf("schema: domain %q has duplicate value %q", name, v)
		}
		if err := checkCell(name, v); err != nil {
			return nil, err
		}
		pos[v] = int32(i + 1)
	}
	d := &Domain{Name: name, Values: append([]string(nil), values...)}
	if len(values) >= 16 {
		d.pos = pos // small domains scan, which is cheaper than hashing
	}
	return d, nil
}

// checkCell refuses a value that value.Parse does not read as a constant.
func checkCell(name, v string) error {
	if c, err := value.Parse(v); err != nil || !c.IsConst() {
		return fmt.Errorf("schema: domain %q value %q is not a constant in the cell notation", name, v)
	}
	return nil
}

// MustDomain is NewDomain for statically known-good inputs.
func MustDomain(name string, values ...string) *Domain {
	d, err := NewDomain(name, values...)
	if err != nil {
		panic(err)
	}
	return d
}

// NewIntDomain builds the domain {prefix1 … prefixN}, convenient for
// synthetic workloads ("sufficiently large" domains per the paper's
// practicality argument). Membership is computed, with no map: c is a value
// iff it is prefix and then k, 1 ≤ k ≤ n, in decimal without leading zeros.
// A prefix starting with "-" is refused, as NewDomain refuses such values.
func NewIntDomain(name, prefix string, n int) (*Domain, error) {
	if n < 1 {
		return nil, fmt.Errorf("schema: domain %q must have at least one value", name)
	}
	if err := checkCell(name, prefix+"1"); err != nil {
		return nil, err
	}
	// The values are substrings of one string: the capacity is an upper
	// bound, so no write moves the bytes String has already handed out.
	var b strings.Builder
	b.Grow(n * (len(prefix) + len(strconv.Itoa(n))))
	var num [20]byte
	vals := make([]string, n)
	for i := range vals {
		start := b.Len()
		b.WriteString(prefix)
		b.Write(strconv.AppendInt(num[:0], int64(i+1), 10))
		vals[i] = b.String()[start:]
	}
	return &Domain{Name: name, Values: vals, isInt: true, prefix: prefix}, nil
}

// IntDomain is NewIntDomain for statically known-good inputs.
func IntDomain(name, prefix string, n int) *Domain {
	d, err := NewIntDomain(name, prefix, n)
	if err != nil {
		panic(err)
	}
	return d
}

// Size returns |dom|.
func (d *Domain) Size() int { return len(d.Values) }

// Contains reports whether c is a domain value. It guards every constant
// on the store's write path, so it is not linear in the domain size: an
// IntDomain computes, a NewDomain of 16+ values hashes, a smaller one
// scans. It allocates nothing.
func (d *Domain) Contains(c string) bool { return d.index(c) >= 0 }

// Canonical is Contains that also returns the domain's own copy of c, the
// Values entry equal to it, for a write path to store. It allocates nothing.
func (d *Domain) Canonical(c string) (string, bool) {
	if i := d.index(c); i >= 0 {
		return d.Values[i], true
	}
	return "", false
}

// index returns c's position in Values, or -1.
func (d *Domain) index(c string) int {
	if d.pos != nil {
		return int(d.pos[c]) - 1 // a miss reads 0
	}
	if !d.isInt {
		return slices.Index(d.Values, c)
	}
	digits, ok := strings.CutPrefix(c, d.prefix)
	if !ok || digits == "" || digits[0] == '0' {
		return -1
	}
	k := 0
	for _, ch := range []byte(digits) {
		// k ≤ n before this step, so it cannot overflow.
		if k = k*10 + int(ch-'0'); ch < '0' || ch > '9' || k > len(d.Values) {
			return -1
		}
	}
	return k - 1
}

// Scheme is a relation scheme R(A1, …, Ap): an ordered list of named
// attributes, each with a finite domain.
type Scheme struct {
	name    string
	names   []string
	domains []*Domain
	index   map[string]Attr
}

// New builds a scheme. Attribute names must be distinct and non-empty, and
// every attribute needs a domain.
func New(name string, attrs []string, domains []*Domain) (*Scheme, error) {
	if len(attrs) == 0 {
		return nil, fmt.Errorf("schema: scheme %q needs at least one attribute", name)
	}
	if len(attrs) > MaxAttrs {
		return nil, fmt.Errorf("schema: scheme %q has %d attributes; max %d", name, len(attrs), MaxAttrs)
	}
	if len(domains) != len(attrs) {
		return nil, fmt.Errorf("schema: scheme %q: %d attributes but %d domains", name, len(attrs), len(domains))
	}
	s := &Scheme{
		name:    name,
		names:   append([]string(nil), attrs...),
		domains: append([]*Domain(nil), domains...),
		index:   make(map[string]Attr, len(attrs)),
	}
	for i, a := range attrs {
		if a == "" {
			return nil, fmt.Errorf("schema: scheme %q has an empty attribute name", name)
		}
		if _, dup := s.index[a]; dup {
			return nil, fmt.Errorf("schema: scheme %q has duplicate attribute %q", name, a)
		}
		if domains[i] == nil {
			return nil, fmt.Errorf("schema: scheme %q attribute %q has nil domain", name, a)
		}
		s.index[a] = Attr(i)
	}
	return s, nil
}

// MustNew is New for statically known-good inputs.
func MustNew(name string, attrs []string, domains []*Domain) *Scheme {
	s, err := New(name, attrs, domains)
	if err != nil {
		panic(err)
	}
	return s
}

// Uniform builds a scheme whose attributes all share one domain.
func Uniform(name string, attrs []string, dom *Domain) *Scheme {
	ds := make([]*Domain, len(attrs))
	for i := range ds {
		ds[i] = dom
	}
	return MustNew(name, attrs, ds)
}

// Name returns the scheme name.
func (s *Scheme) Name() string { return s.name }

// Arity returns the number of attributes p.
func (s *Scheme) Arity() int { return len(s.names) }

// AttrName returns the name of attribute a.
func (s *Scheme) AttrName(a Attr) string { return s.names[a] }

// Domain returns the domain of attribute a.
func (s *Scheme) Domain(a Attr) *Domain { return s.domains[a] }

// Attr resolves an attribute name.
func (s *Scheme) Attr(name string) (Attr, bool) {
	a, ok := s.index[name]
	return a, ok
}

// MustAttr resolves an attribute name, panicking if absent.
func (s *Scheme) MustAttr(name string) Attr {
	a, ok := s.index[name]
	if !ok {
		panic(fmt.Sprintf("schema: scheme %q has no attribute %q", s.name, name))
	}
	return a
}

// All returns the set of all attributes (the universal set R).
func (s *Scheme) All() AttrSet {
	if len(s.names) == MaxAttrs {
		return AttrSet(^uint64(0))
	}
	return AttrSet(1)<<uint(len(s.names)) - 1
}

// Set resolves a list of attribute names to a set.
func (s *Scheme) Set(names ...string) (AttrSet, error) {
	var out AttrSet
	for _, n := range names {
		a, ok := s.index[n]
		if !ok {
			return 0, fmt.Errorf("schema: scheme %q has no attribute %q", s.name, n)
		}
		out = out.Add(a)
	}
	return out, nil
}

// MustSet resolves attribute names, panicking on unknown names.
func (s *Scheme) MustSet(names ...string) AttrSet {
	set, err := s.Set(names...)
	if err != nil {
		panic(err)
	}
	return set
}

// ParseSet parses a comma- or space-separated attribute list such as
// "E#,SL" or "A B".
func (s *Scheme) ParseSet(list string) (AttrSet, error) {
	fields := strings.FieldsFunc(list, func(r rune) bool {
		return r == ',' || r == ' ' || r == '\t'
	})
	return s.Set(fields...)
}

// FormatSet renders an attribute set with the scheme's names, e.g. "A,B".
func (s *Scheme) FormatSet(set AttrSet) string {
	names := make([]string, 0, set.Len())
	set.ForEach(func(a Attr) {
		if int(a) < len(s.names) {
			names = append(names, s.names[a])
		} else {
			names = append(names, fmt.Sprintf("#%d", a))
		}
	})
	sort.Strings(names)
	return strings.Join(names, ",")
}

// Project returns a new scheme containing only the attributes in keep, in
// scheme order. The mapping from old to new attribute indices is returned
// alongside.
func (s *Scheme) Project(name string, keep AttrSet) (*Scheme, map[Attr]Attr, error) {
	if keep.Empty() {
		return nil, nil, fmt.Errorf("schema: projection of %q onto empty set", s.name)
	}
	var names []string
	var doms []*Domain
	mapping := make(map[Attr]Attr)
	for _, a := range keep.Attrs() {
		if int(a) >= len(s.names) {
			return nil, nil, fmt.Errorf("schema: attribute %d not in scheme %q", a, s.name)
		}
		mapping[a] = Attr(len(names))
		names = append(names, s.names[a])
		doms = append(doms, s.domains[a])
	}
	ns, err := New(name, names, doms)
	if err != nil {
		return nil, nil, err
	}
	return ns, mapping, nil
}

// String renders "R(A, B, C)".
func (s *Scheme) String() string {
	return fmt.Sprintf("%s(%s)", s.name, strings.Join(s.names, ", "))
}

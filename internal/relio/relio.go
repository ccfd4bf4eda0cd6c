// Package relio parses and prints relations, schemes, and FD sets in a
// small plain-text format used by the command-line tools.
//
// Format:
//
//	# comments and blank lines are ignored
//	scheme R(A:dom1, B:dom1, C:dom2)
//	domain dom1 = v1 v2 v3
//	domain dom2 = x y
//	fd A -> B
//	fd B,C -> A
//	row v1 v2 x
//	row v1 -  y      # "-" fresh null
//	row v2 -3 x      # "-3" marked null ⊥3
//	row v1 !  y      # "!" the inconsistent element
//	nextmark 7       # optional: fresh-mark allocator watermark
//
// Domains may be declared before or after the scheme line; every domain
// referenced by the scheme must be declared somewhere in the file.
//
// The optional `nextmark` directive persists the fresh-mark allocator's
// watermark: a store whose allocator advanced past its live marks (dead
// unknowns, rejected speculations) must restore the exact watermark so a
// recycled mark can never alias an unrelated unknown. Parse applies it
// as a floor — the relation's allocator never ends up below (max mark
// seen in the rows)+1.
//
// Parse accepts every instance Write can emit from a live store:
// duplicate rows are kept in order (positions index an instance), and a
// constant is valid if any domain of the scheme contains it — the chase
// substitutes a marked null everywhere it occurs, which can carry one
// column's constant into another. It refuses a "-0" cell (⊥0 prints as
// a fresh "-") and a domain value or attribute name starting with '#'
// (Write would print it after a space, as a comment).
//
// A loaded file keeps one copy of each row, carved from one n·p slab, and
// no byte of its text. A domain line listing exactly prefix1 … prefixN
// loads as schema.NewIntDomain, so an IntDomain round-trips with no map.
// chase.Run on the loaded relation shares its unchanged rows with it
// copy-on-write: the relation's next structural write pays one O(n) slice
// copy, as after a View.
package relio

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"

	"fdnull/internal/fd"
	"fdnull/internal/relation"
	"fdnull/internal/schema"
	"fdnull/internal/value"
)

// File is a parsed input: a scheme, its FDs, and an instance.
type File struct {
	Scheme   *schema.Scheme
	FDs      []fd.FD
	Relation *relation.Relation
	// NextMark, when positive, is the fresh-mark allocator watermark the
	// file carries (the `nextmark` directive). Write emits it and Parse
	// applies it to the relation as a floor.
	NextMark int
}

// Parse reads the textual format.
func Parse(r io.Reader) (*File, error) {
	var text strings.Builder
	if _, err := io.Copy(&text, r); err != nil {
		return nil, err
	}
	return ParseString(text.String())
}

// ParseString is Parse over a string. It sweeps text's lines once,
// keeping the rows as spans of text until the scheme is built, then
// decodes them into one n·p slab.
func ParseString(text string) (*File, error) {
	domains := map[string]*schema.Domain{}
	var schemeName string
	var attrNames, attrDoms []string
	var fdLines, rows []string
	nextMark := 0
	for lineno := 1; text != ""; lineno++ {
		line, rest, _ := strings.Cut(text, "\n")
		text = rest
		line = strings.TrimSpace(line)
		// '#' starts a comment only at the beginning of a line or after
		// white space, where a field starts — attribute names like "E#"
		// must survive.
		for i := 0; i < len(line); i++ {
			if line[i] != '#' {
				continue
			}
			if r, _ := utf8.DecodeLastRuneInString(line[:i]); i == 0 || unicode.IsSpace(r) {
				line = strings.TrimSpace(line[:i])
				break
			}
		}
		if line == "" {
			continue
		}
		switch {
		case strings.HasPrefix(line, "domain "):
			name, vals, ok := strings.Cut(strings.TrimPrefix(line, "domain "), "=")
			if !ok {
				return nil, fmt.Errorf("relio: line %d: domain needs '='", lineno)
			}
			name = strings.Clone(strings.TrimSpace(name))
			d, err := loadDomain(name, vals)
			if err != nil {
				return nil, fmt.Errorf("relio: line %d: %v", lineno, err)
			}
			domains[name] = d
		case strings.HasPrefix(line, "scheme "):
			rest := strings.TrimPrefix(line, "scheme ")
			open := strings.IndexByte(rest, '(')
			closeP := strings.LastIndexByte(rest, ')')
			if open < 0 || closeP < open {
				return nil, fmt.Errorf("relio: line %d: scheme needs R(...)", lineno)
			}
			schemeName = strings.Clone(strings.TrimSpace(rest[:open]))
			for _, spec := range strings.Split(rest[open+1:closeP], ",") {
				spec = strings.TrimSpace(spec)
				name, dom, ok := strings.Cut(spec, ":")
				if !ok {
					return nil, fmt.Errorf("relio: line %d: attribute %q needs name:domain", lineno, spec)
				}
				if name = strings.TrimSpace(name); strings.HasPrefix(name, "#") {
					return nil, fmt.Errorf("relio: line %d: attribute %q would print as a comment", lineno, name)
				}
				attrNames = append(attrNames, strings.Clone(name))
				attrDoms = append(attrDoms, strings.TrimSpace(dom))
			}
		case strings.HasPrefix(line, "fd "):
			fdLines = append(fdLines, strings.TrimPrefix(line, "fd "))
		case strings.HasPrefix(line, "row "):
			rows = append(rows, strings.TrimPrefix(line, "row "))
		case strings.HasPrefix(line, "nextmark "):
			n := 0
			if _, err := fmt.Sscanf(strings.TrimSpace(strings.TrimPrefix(line, "nextmark ")), "%d", &n); err != nil || n < 1 {
				return nil, fmt.Errorf("relio: line %d: nextmark wants a positive integer", lineno)
			}
			nextMark = n
		default:
			return nil, fmt.Errorf("relio: line %d: unrecognized directive %q", lineno, line)
		}
	}
	if schemeName == "" {
		return nil, fmt.Errorf("relio: no scheme declared")
	}
	doms := make([]*schema.Domain, len(attrNames))
	for i, dn := range attrDoms {
		d, ok := domains[dn]
		if !ok {
			return nil, fmt.Errorf("relio: attribute %q references undeclared domain %q", attrNames[i], dn)
		}
		doms[i] = d
	}
	s, err := schema.New(schemeName, attrNames, doms)
	if err != nil {
		return nil, err
	}
	out := &File{Scheme: s}
	for _, fl := range fdLines {
		f, err := fd.Parse(s, fl)
		if err != nil {
			return nil, err
		}
		out.FDs = append(out.FDs, f)
	}
	p := s.Arity()
	slab := make([]value.V, len(rows)*p)
	tuples := make([]relation.Tuple, len(rows))
	fresh := 1 // the mark a "-" draws
	for i, row := range rows {
		tuples[i], slab = slab[:p:p], slab[p:]
		if err := decodeRow(s, row, tuples[i], &fresh); err != nil {
			return nil, fmt.Errorf("relio: row %d: %v", i+1, err)
		}
	}
	out.Relation = relation.FromTuples(s, tuples, nil)
	if nextMark > out.Relation.NextMark() {
		out.Relation.SetNextMark(nextMark)
	}
	out.NextMark = out.Relation.NextMark()
	return out, nil
}

// loadDomain builds the domain a `domain` line lists: prefix1 … prefixN
// as a schema.NewIntDomain, any other list as a NewDomain over a copy of
// it. A value Write would print after a space, as a comment, is refused.
func loadDomain(name, list string) (*schema.Domain, error) {
	prefix, n, isInt := "", 0, true
	for f, rest := nextField(list); f != ""; f, rest = nextField(rest) {
		if f[0] == '#' {
			return nil, fmt.Errorf("domain %q value %q would print as a comment", name, f)
		}
		if n++; n == 1 {
			prefix = strings.TrimSuffix(f, "1")
		}
		digits, ok := strings.CutPrefix(f, prefix) // must read n, no leading zero
		k := 0
		for i := 0; isInt && ok && i < len(digits) && k <= n; i++ {
			k, ok = k*10+int(digits[i]-'0'), digits[i] >= '0' && digits[i] <= '9'
		}
		isInt = isInt && ok && k == n && digits[0] != '0'
	}
	if !isInt || n == 0 {
		return schema.NewDomain(name, strings.Fields(strings.Clone(list))...)
	}
	return schema.NewIntDomain(name, strings.Clone(prefix), n)
}

// decodeRow reads a row's cells into t: "-" draws the mark *fresh, which
// then moves past the row's marks; "-k" (k ≥ 1) and "!" read as in
// value.Parse; any other cell is its domain's string. Errors rank as
// ParseRow's did: the width, a malformed null, a constant in no domain.
func decodeRow(s *schema.Scheme, row string, t relation.Tuple, fresh *int) error {
	var bad, miss error
	a := 0
	for f, rest := nextField(row); f != ""; f, rest = nextField(rest) {
		switch {
		case a >= len(t) || bad != nil:
		case f == "-":
			t[a] = value.NewNull(*fresh)
			*fresh++
		case f == "!" || f[0] == '-':
			t[a], bad = value.Parse(f)
		default: // its own column's domain first, then any: the chase moves constants
			c, ok := s.Domain(schema.Attr(a)).Canonical(f)
			for b := 0; !ok && b < s.Arity(); b++ {
				c, ok = s.Domain(schema.Attr(b)).Canonical(f)
			}
			if !ok && miss == nil {
				miss = fmt.Errorf("value %q of attribute %s is in no domain of scheme %s",
					f, s.AttrName(schema.Attr(a)), s.Name())
			}
			t[a] = value.NewConst(c)
		}
		a++
	}
	switch {
	case a != len(t):
		return fmt.Errorf("%d cells, scheme %s has arity %d", a, s.Name(), s.Arity())
	case bad != nil:
		return bad
	case miss != nil:
		return miss
	}
	for _, v := range t {
		if v.IsNull() && v.Mark() >= *fresh {
			*fresh = v.Mark() + 1
		}
	}
	return nil
}

// nextField returns s's first field, as strings.Fields splits (only a byte
// ≥ 0x80 decodes a rune), and the rest of s; field is "" when s has none.
func nextField(s string) (field, rest string) {
	start := len(s)
	for i, n := 0, 0; i < len(s); i += n {
		r, sp := rune(s[i]), asciiSpace[s[i]]
		if n = 1; r >= utf8.RuneSelf {
			r, n = utf8.DecodeRuneInString(s[i:])
			sp = unicode.IsSpace(r)
		}
		if !sp && start == len(s) {
			start = i
		} else if sp && start < i {
			return s[start:i], s[i:]
		}
	}
	return s[start:], ""
}

var asciiSpace = [256]bool{'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true}

// Write renders a File back into the textual format (domains first, then
// scheme, FDs, rows). The text goes through one writeBlock-sized buffer,
// so w sees one Write per block, not one per row, and a row costs no
// allocation: its cells are appended in place. The error is the first w
// returned.
func Write(w io.Writer, f *File) error {
	s := f.Scheme
	bw := bufio.NewWriterSize(w, writeBlock)
	// Collect distinct domains in attribute order.
	seen := map[string]*schema.Domain{}
	var order []string
	specs := make([]string, s.Arity())
	for i := 0; i < s.Arity(); i++ {
		d := s.Domain(schema.Attr(i))
		if _, ok := seen[d.Name]; !ok {
			seen[d.Name] = d
			order = append(order, d.Name)
		}
		specs[i] = s.AttrName(schema.Attr(i)) + ":" + d.Name
	}
	sort.Strings(order)
	for _, name := range order { // bufio keeps the first error for Flush
		fmt.Fprintf(bw, "domain %s = %s\n", name, strings.Join(seen[name].Values, " "))
	}
	fmt.Fprintf(bw, "scheme %s(%s)\n", s.Name(), strings.Join(specs, ", "))
	for _, dep := range f.FDs {
		fmt.Fprintf(bw, "fd %s\n", dep.Format(s))
	}
	line := make([]byte, 0, 128)
	if f.NextMark > 0 {
		line = strconv.AppendInt(append(line, "nextmark "...), int64(f.NextMark), 10)
		bw.Write(append(line, '\n')) // errcheck:ok bufio keeps the first error; Flush returns it
	}
	if f.Relation != nil {
		for _, t := range f.Relation.Tuples() {
			line = append(line[:0], "row"...)
			for _, v := range t {
				line = v.AppendString(append(line, ' '))
			}
			line = append(line, '\n')
			bw.Write(line) // errcheck:ok bufio keeps the first error; Flush returns it
		}
	}
	return bw.Flush()
}

// writeBlock is the size of the blocks Write hands its writer.
const writeBlock = 64 << 10

// WriteString renders a File to a string.
func WriteString(f *File) (string, error) {
	var b strings.Builder
	if err := Write(&b, f); err != nil {
		return "", err
	}
	return b.String(), nil
}

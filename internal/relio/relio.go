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
// column's constant into another.
package relio

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strings"

	"fdnull/internal/fd"
	"fdnull/internal/relation"
	"fdnull/internal/schema"
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

// anyDomainContains reports whether some attribute domain of s contains
// the constant c. Row cells are validated against this union rather
// than the column's own domain: every constant in a store-reachable
// instance entered through some column's domain, but chase substitution
// can move it into a different column.
func anyDomainContains(s *schema.Scheme, c string) bool {
	for a := 0; a < s.Arity(); a++ {
		if s.Domain(schema.Attr(a)).Contains(c) {
			return true
		}
	}
	return false
}

// Parse reads the textual format.
func Parse(r io.Reader) (*File, error) {
	// Lines are bounded only by the input: a domain is one line, however
	// many values it lists.
	br := bufio.NewReader(r)

	domains := map[string]*schema.Domain{}
	var schemeName string
	var attrNames, attrDoms []string
	var fdLines []string
	var rows [][]string
	nextMark := 0
	lineno := 0
	for eof := false; !eof; {
		text, err := br.ReadString('\n')
		eof = err == io.EOF
		if err != nil && !eof {
			return nil, err
		}
		if eof && text == "" {
			break
		}
		lineno++
		line := strings.TrimSpace(text)
		// '#' starts a comment only at the beginning of a line or after
		// whitespace — attribute names like "E#" must survive.
		for i := 0; i < len(line); i++ {
			if line[i] == '#' && (i == 0 || line[i-1] == ' ' || line[i-1] == '\t') {
				line = strings.TrimSpace(line[:i])
				break
			}
		}
		if line == "" {
			continue
		}
		switch {
		case strings.HasPrefix(line, "domain "):
			rest := strings.TrimPrefix(line, "domain ")
			parts := strings.SplitN(rest, "=", 2)
			if len(parts) != 2 {
				return nil, fmt.Errorf("relio: line %d: domain needs '='", lineno)
			}
			name := strings.TrimSpace(parts[0])
			vals := strings.Fields(parts[1])
			d, err := schema.NewDomain(name, vals...)
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
			schemeName = strings.TrimSpace(rest[:open])
			for _, spec := range strings.Split(rest[open+1:closeP], ",") {
				spec = strings.TrimSpace(spec)
				bits := strings.SplitN(spec, ":", 2)
				if len(bits) != 2 {
					return nil, fmt.Errorf("relio: line %d: attribute %q needs name:domain", lineno, spec)
				}
				attrNames = append(attrNames, strings.TrimSpace(bits[0]))
				attrDoms = append(attrDoms, strings.TrimSpace(bits[1]))
			}
		case strings.HasPrefix(line, "fd "):
			fdLines = append(fdLines, strings.TrimPrefix(line, "fd "))
		case strings.HasPrefix(line, "row "):
			rows = append(rows, strings.Fields(strings.TrimPrefix(line, "row ")))
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
	out := &File{Scheme: s, Relation: relation.New(s)}
	for _, fl := range fdLines {
		f, err := fd.Parse(s, fl)
		if err != nil {
			return nil, err
		}
		out.FDs = append(out.FDs, f)
	}
	for i, row := range rows {
		if len(row) != s.Arity() {
			return nil, fmt.Errorf("relio: row %d: %d cells, scheme %s has arity %d",
				i+1, len(row), s.Name(), s.Arity())
		}
		t, err := out.Relation.ParseRow(row...)
		if err != nil {
			return nil, fmt.Errorf("relio: row %d: %v", i+1, err)
		}
		// Constants are validated against the union of the scheme's
		// domains, not the column they appear in, and duplicate rows are
		// accepted: the chase substitutes a marked null everywhere it
		// occurs, which can land another column's constant in a cell or
		// make two rows syntactically equal, and a file written from such
		// an instance must load back verbatim (positions index it).
		for a, v := range t {
			if v.IsConst() && !s.Domain(schema.Attr(a)).Contains(v.Const()) && !anyDomainContains(s, v.Const()) {
				return nil, fmt.Errorf("relio: row %d: value %q of attribute %s is in no domain of scheme %s",
					i+1, v.Const(), s.AttrName(schema.Attr(a)), s.Name())
			}
		}
		out.Relation.InsertUnchecked(t) // t is fresh: the relation takes it as it is
	}
	if nextMark > out.Relation.NextMark() {
		out.Relation.SetNextMark(nextMark)
	}
	out.NextMark = out.Relation.NextMark()
	return out, nil
}

// ParseString is Parse over a string.
func ParseString(s string) (*File, error) {
	return Parse(strings.NewReader(s))
}

// Write renders a File back into the textual format (domains first, then
// scheme, FDs, rows).
func Write(w io.Writer, f *File) error {
	s := f.Scheme
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
	for _, name := range order {
		d := seen[name]
		if _, err := fmt.Fprintf(w, "domain %s = %s\n", name, strings.Join(d.Values, " ")); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "scheme %s(%s)\n", s.Name(), strings.Join(specs, ", ")); err != nil {
		return err
	}
	for _, dep := range f.FDs {
		if _, err := fmt.Fprintf(w, "fd %s\n", dep.Format(s)); err != nil {
			return err
		}
	}
	if f.NextMark > 0 {
		if _, err := fmt.Fprintf(w, "nextmark %d\n", f.NextMark); err != nil {
			return err
		}
	}
	if f.Relation != nil {
		for _, t := range f.Relation.Tuples() {
			cells := make([]string, len(t))
			for i, v := range t {
				cells[i] = v.String()
			}
			if _, err := fmt.Fprintf(w, "row %s\n", strings.Join(cells, " ")); err != nil {
				return err
			}
		}
	}
	return nil
}

// WriteString renders a File to a string.
func WriteString(f *File) (string, error) {
	var b strings.Builder
	if err := Write(&b, f); err != nil {
		return "", err
	}
	return b.String(), nil
}

package query

// parse.go implements a small predicate language for the CLI:
//
//	expr  := or
//	or    := and { "or" and }
//	and   := unary { "and" unary }
//	unary := "not" unary | "(" expr ")" | atom
//	atom  := ident "=" operand | ident "in" "(" value {"," value} ")"
//
// An operand that names an attribute parses as attribute equality;
// anything else is a constant. "and" binds tighter than "or".
//
// The keywords "not", "and", "or", and "in" are reserved, matched
// case-insensitively, and always read as syntax in atom-head position —
// an attribute carrying one of those names cannot be referenced and is
// rejected with a clear error rather than silently mis-parsed. In
// *operand* position (right of "=", or inside an "in" list) a keyword
// spelling reads as a plain constant, never as an attribute reference.
//
// Constants are validated against the attribute's domain at parse time:
// a typo'd attribute name on the right of "=" (or any constant outside
// the domain) is a hard error, not an always-false comparison returning
// a silently empty answer. Programmatic predicates (the Eq/In structs)
// stay free to carry out-of-domain constants — they analytically
// evaluate to false, as the least extension dictates.

import (
	"fmt"
	"strings"

	"fdnull/internal/schema"
)

// ParsePred parses a predicate against a scheme. Up to 16 tokens live
// on the caller's stack: a point read's parse allocates only the atom it
// returns.
func ParsePred(s *schema.Scheme, input string) (Pred, error) {
	var stack [16]string
	toks, err := lex(input, stack[:0])
	if err != nil {
		return nil, err
	}
	p := &parser{s: s, toks: toks}
	pred, err := p.parseOr()
	if err != nil {
		return nil, err
	}
	if !p.eof() {
		return nil, fmt.Errorf("query: unexpected %q after predicate", p.peek())
	}
	return pred, nil
}

// lex appends input's tokens to toks.
func lex(input string, toks []string) ([]string, error) {
	i := 0
	for i < len(input) {
		c := input[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n':
			i++
		case c == '(' || c == ')' || c == ',' || c == '=':
			toks = append(toks, input[i:i+1])
			i++
		default:
			j := i
			for j < len(input) && !strings.ContainsRune(" \t\n(),=", rune(input[j])) {
				j++
			}
			toks = append(toks, input[i:j])
			i = j
		}
	}
	if len(toks) == 0 {
		return nil, fmt.Errorf("query: empty predicate")
	}
	return toks, nil
}

type parser struct {
	s    *schema.Scheme
	toks []string
	pos  int
}

func (p *parser) eof() bool    { return p.pos >= len(p.toks) }
func (p *parser) peek() string { return p.toks[p.pos] }
func (p *parser) next() string {
	t := p.toks[p.pos]
	p.pos++
	return t
}

func (p *parser) expect(tok string) error {
	if p.eof() || p.peek() != tok {
		got := "end of input"
		if !p.eof() {
			got = fmt.Sprintf("%q", p.peek())
		}
		return fmt.Errorf("query: expected %q, got %s", tok, got)
	}
	p.pos++
	return nil
}

func (p *parser) parseOr() (Pred, error) {
	left, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for !p.eof() && strings.EqualFold(p.peek(), "or") {
		p.next()
		right, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		left = Or{left, right}
	}
	return left, nil
}

func (p *parser) parseAnd() (Pred, error) {
	left, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for !p.eof() && strings.EqualFold(p.peek(), "and") {
		p.next()
		right, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		left = And{left, right}
	}
	return left, nil
}

func (p *parser) parseUnary() (Pred, error) {
	if p.eof() {
		return nil, fmt.Errorf("query: unexpected end of predicate")
	}
	switch {
	case strings.EqualFold(p.peek(), "not"):
		p.next()
		inner, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return Not{inner}, nil
	case p.peek() == "(":
		p.next()
		inner, err := p.parseOr()
		if err != nil {
			return nil, err
		}
		if err := p.expect(")"); err != nil {
			return nil, err
		}
		return inner, nil
	default:
		return p.parseAtom()
	}
}

// domainsIntersect reports whether the two domains share any value.
func domainsIntersect(a, b *schema.Domain) bool {
	if a == b {
		return true
	}
	for _, v := range a.Values {
		if b.Contains(v) {
			return true
		}
	}
	return false
}

// reserved reports whether tok is a keyword of the predicate language
// (case-insensitive, like the keywords themselves).
func reserved(tok string) bool {
	for _, kw := range [...]string{"not", "and", "or", "in"} {
		if strings.EqualFold(tok, kw) {
			return true
		}
	}
	return false
}

func (p *parser) parseAtom() (Pred, error) {
	name := p.next()
	if reserved(name) {
		return nil, fmt.Errorf("query: reserved word %q cannot start an atom (attributes named not/and/or/in cannot be referenced)", name)
	}
	attr, ok := p.s.Attr(name)
	if !ok {
		return nil, fmt.Errorf("query: unknown attribute %q", name)
	}
	dom := p.s.Domain(attr)
	if p.eof() {
		return nil, fmt.Errorf("query: attribute %q needs a comparison", name)
	}
	switch {
	case p.peek() == "=":
		p.next()
		if p.eof() {
			return nil, fmt.Errorf("query: %q = needs an operand", name)
		}
		operand := p.next()
		if !reserved(operand) {
			if other, ok := p.s.Attr(operand); ok {
				// An always-false comparison between attributes whose
				// domains cannot intersect is the same silent-empty-answer
				// trap as an out-of-domain constant: reject it.
				if od := p.s.Domain(other); !domainsIntersect(dom, od) {
					return nil, fmt.Errorf("query: attributes %q and %q have disjoint domains (%q, %q); the comparison is always false",
						name, operand, dom.Name, od.Name)
				}
				return EqAttr{A: attr, B: other}, nil
			}
		}
		if !dom.Contains(operand) {
			return nil, fmt.Errorf("query: %q is neither an attribute nor a value of domain %q (attribute %q)", operand, dom.Name, name)
		}
		return Eq{Attr: attr, Const: operand}, nil
	case strings.EqualFold(p.peek(), "in"):
		p.next()
		if err := p.expect("("); err != nil {
			return nil, err
		}
		var vals []string
		for {
			if p.eof() {
				return nil, fmt.Errorf("query: unterminated value list")
			}
			vals = append(vals, p.next())
			if p.eof() {
				return nil, fmt.Errorf("query: unterminated value list")
			}
			if p.peek() == "," {
				p.next()
				continue
			}
			break
		}
		if err := p.expect(")"); err != nil {
			return nil, err
		}
		for _, v := range vals {
			if !dom.Contains(v) {
				return nil, fmt.Errorf("query: value %q is outside domain %q of attribute %q", v, dom.Name, name)
			}
		}
		return In{Attr: attr, Values: vals}, nil
	default:
		return nil, fmt.Errorf("query: expected = or in after %q, got %q", name, p.peek())
	}
}

package main

import (
	"strconv"
)

// cell is one tuple cell in generator form: a constant of an integer
// domain family (prefix letter + number, e.g. k17), or a null when p is
// '-' (n == 0 the fresh null "-", n > 0 the marked null "-n").
type cell struct {
	p byte
	n int32
}

func konst(p byte, n int) cell { return cell{p: p, n: int32(n)} }

var freshNull = cell{p: '-'}

func (c cell) isNull() bool { return c.p == '-' }

func (c cell) append(b []byte) []byte {
	b = append(b, c.p)
	if c.p == '-' && c.n == 0 {
		return b
	}
	return strconv.AppendInt(b, int64(c.n), 10)
}

func (c cell) String() string { return string(c.append(nil)) }

// maxArity bounds the schemes the generators use (KV has 3 attributes,
// EMP has 4), so rows are fixed-size arrays and an op holds no pointers.
const maxArity = 4

// txnRows is the size of the generators' multi-row write-sets.
const txnRows = 4

type row [maxArity]cell

// layout is what the encoders need to know about a tenant's scheme.
type layout struct {
	attrs []string // attribute names, in scheme order
}

func (l layout) arity() int { return len(l.attrs) }

type opKind uint8

const (
	opQuery opKind = iota
	opInsert
	opUpdate
	opDelete
	opTxnInsert
	opTxnDelete
)

// opClass names what an op is for in its workload; the traced run
// groups its spans by class, and the end-of-run report counts them.
type opClass uint8

const (
	clsPointRead opClass = iota
	clsGroupRead
	clsInsert
	clsUpdate
	clsDelete
	clsTxn
	clsNullInsert    // insert with null SL and CT; the NS-rule forces CT
	clsResolveRead   // first half of a resolve pair: read the row to learn its mark
	clsResolveUpdate // second half: overwrite the salary mark with a constant
	clsCTResolve     // overwrite a department's shared contract mark
	clsDoomed        // insert contradicting D -> CT; must be rejected
	numClasses
)

var classNames = [numClasses]string{
	"query", "group_query", "insert", "update", "delete", "txn",
	"null_insert", "resolve_read", "resolve_update", "ct_resolve", "reject",
}

// pred is one `attr = const` conjunct of a query.
type pred struct {
	attr int
	val  cell
}

// op is one request in scheme-independent form. The same op is
// rendered as a wire line for the daemon, applied through the
// store.Sharded API on the traced run's twin, and applied to the
// unsharded oracle store at the end of a run; none of the three needs
// anything beyond this struct and the executor's captured row.
type op struct {
	kind  opKind
	class opClass
	// reject is the expected outcome: the daemon must refuse the op with
	// rejected:true. Every other op must succeed.
	reject bool
	// capture (queries) keeps the first answer row in the executor;
	// useCapture (updates) matches that row instead of rows[0]. The pair
	// is how a client learns which mark a null carries before it
	// overwrites it.
	capture    bool
	useCapture bool

	nrows int
	rows  [txnRows]row // insert rows, or match rows of update/delete
	attr  int          // update: attribute index
	val   cell         // update: new value
	npred int
	preds [2]pred
}

var opNames = [...]string{"query", "insert", "update", "delete", "txn", "txn"}

func appendRow(b []byte, r *row, arity int) []byte {
	b = append(b, '[')
	for i := 0; i < arity; i++ {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, '"')
		b = r[i].append(b)
		b = append(b, '"')
	}
	return append(b, ']')
}

func appendCaptured(b []byte, cells [][]byte) []byte {
	b = append(b, '[')
	for i, c := range cells {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, '"')
		b = append(b, c...)
		b = append(b, '"')
	}
	return append(b, ']')
}

// appendWhere renders the conjunction in the predicate language the
// daemon parses ("and", not the "&" its protocol comment shows).
func (o *op) appendWhere(b []byte, l layout) []byte {
	for i := 0; i < o.npred; i++ {
		if i > 0 {
			b = append(b, " and "...)
		}
		b = append(b, l.attrs[o.preds[i].attr]...)
		b = append(b, " = "...)
		b = o.preds[i].val.append(b)
	}
	return b
}

// appendWire renders the op as one request line, newline included.
// captured is the executor's kept answer row (used when useCapture).
func (o *op) appendWire(b []byte, l layout, captured [][]byte) []byte {
	b = append(b, `{"op":"`...)
	b = append(b, opNames[o.kind]...)
	b = append(b, '"')
	switch o.kind {
	case opQuery:
		b = append(b, `,"where":"`...)
		b = o.appendWhere(b, l)
		b = append(b, '"')
	case opInsert:
		b = append(b, `,"row":`...)
		b = appendRow(b, &o.rows[0], l.arity())
	case opUpdate:
		b = append(b, `,"match":`...)
		if o.useCapture {
			b = appendCaptured(b, captured)
		} else {
			b = appendRow(b, &o.rows[0], l.arity())
		}
		b = append(b, `,"attr":"`...)
		b = append(b, l.attrs[o.attr]...)
		b = append(b, `","value":"`...)
		b = o.val.append(b)
		b = append(b, '"')
	case opDelete:
		b = append(b, `,"match":`...)
		b = appendRow(b, &o.rows[0], l.arity())
	case opTxnInsert, opTxnDelete:
		b = append(b, `,"ops":[`...)
		for i := 0; i < o.nrows; i++ {
			if i > 0 {
				b = append(b, ',')
			}
			if o.kind == opTxnInsert {
				b = append(b, `{"op":"insert","row":`...)
			} else {
				b = append(b, `{"op":"delete","match":`...)
			}
			b = appendRow(b, &o.rows[i], l.arity())
			b = append(b, '}')
		}
		b = append(b, ']')
	}
	return append(b, '}', '\n')
}

package main

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"fdnull/internal/fd"
	"fdnull/internal/query"
	"fdnull/internal/relation"
	"fdnull/internal/schema"
	"fdnull/internal/store"
	"fdnull/internal/value"
)

// buildScheme builds a tenant's scheme and dependency set the way the
// daemon does from its config: integer-family domains, FDs parsed from
// text.
func (d tenantDef) buildScheme() (*schema.Scheme, []fd.FD, error) {
	doms := make([]*schema.Domain, len(d.attrs))
	for i, a := range d.attrs {
		doms[i] = schema.IntDomain("dom"+a, string(d.prefix[i]), d.sizes[i])
	}
	s, err := schema.New(d.scheme, d.attrs, doms)
	if err != nil {
		return nil, nil, err
	}
	fds, err := fd.ParseSet(s, d.fds)
	if err != nil {
		return nil, nil, err
	}
	return s, fds, nil
}

func cellValue(c cell) value.V {
	if c.isNull() {
		return value.NewNull(int(c.n))
	}
	return value.NewConst(c.String())
}

func rowTuple(r *row, arity int) relation.Tuple {
	t := make(relation.Tuple, arity)
	for i := range t {
		t[i] = cellValue(r[i])
	}
	return t
}

func rowStrings(r *row, arity int) []string {
	out := make([]string, arity)
	for i := range out {
		out[i] = r[i].String()
	}
	return out
}

// shardedTarget applies ops straight to a store.Sharded, making the
// same store calls serve's dispatch makes for the same wire request, so
// a direct op costs what the daemon spends below its protocol layer.
// With a recorder it emits a root store.<class> span per op, with
// query.parse / store.select children for reads (durable commits get
// their iox.* children from the timing filesystem).
type shardedTarget struct {
	st       *store.Sharded
	scheme   *schema.Scheme
	l        layout
	rec      *recorder
	captured relation.Tuple
	where    []byte
}

func newShardedTarget(st *store.Sharded, d tenantDef, rec *recorder) *shardedTarget {
	return &shardedTarget{st: st, scheme: st.Scheme(), l: d.layout(), rec: rec}
}

// outcome turns a store call's error into "was this the expected
// outcome": success for an ordinary op, a constraint rejection for a
// doomed one. Any other error is passed on.
func outcome(o *op, err error) (bool, error) {
	switch {
	case err == nil:
		return !o.reject, nil
	case errors.Is(err, store.ErrInconsistent):
		return o.reject, nil
	default:
		return false, err
	}
}

func (t *shardedTarget) do(o *op) (bool, error) {
	id := t.rec.begin("store." + classNames[o.class])
	err := t.apply(o)
	t.rec.end(id)
	return outcome(o, err)
}

func (t *shardedTarget) apply(o *op) error {
	arity := t.l.arity()
	switch o.kind {
	case opQuery:
		t.where = o.appendWhere(t.where[:0], t.l)
		id := t.rec.begin("query.parse")
		p, err := query.ParsePred(t.scheme, string(t.where))
		t.rec.end(id)
		if err != nil {
			return err
		}
		id = t.rec.begin("store.select")
		sure, maybe := t.st.SelectTuples(p, query.Options{})
		t.rec.end(id)
		if o.capture {
			switch {
			case len(sure) > 0:
				t.captured = sure[0]
			case len(maybe) > 0:
				t.captured = maybe[0]
			default:
				return errors.New("capturing query matched no row")
			}
		}
		return nil
	case opInsert:
		return t.st.InsertRow(rowStrings(&o.rows[0], arity)...)
	case opUpdate:
		match := t.captured
		if !o.useCapture {
			match = rowTuple(&o.rows[0], arity)
		}
		return t.st.UpdateTuple(match, schema.Attr(o.attr), cellValue(o.val))
	case opDelete:
		return t.st.DeleteTuple(rowTuple(&o.rows[0], arity))
	case opTxnInsert, opTxnDelete:
		tx := t.st.BeginTxn()
		for i := 0; i < o.nrows; i++ {
			var err error
			if o.kind == opTxnInsert {
				err = tx.InsertRow(rowStrings(&o.rows[i], arity)...)
			} else {
				err = tx.Delete(rowTuple(&o.rows[i], arity))
			}
			if err != nil {
				tx.Rollback()
				return err
			}
		}
		return tx.Commit()
	}
	return fmt.Errorf("unknown op kind %d", o.kind)
}

// oracleTarget replays a run's ops into a plain unsharded store.Store:
// no shards, no locks, no wire, transactions unrolled into single ops.
// Plain reads are skipped — they change nothing — but capturing reads
// run, because the oracle's marks are numbered differently from the
// daemon's and an update must address the oracle's own.
type oracleTarget struct {
	st       *store.Store
	l        layout
	captured relation.Tuple
}

func newOracle(d tenantDef) (*oracleTarget, error) {
	s, fds, err := d.buildScheme()
	if err != nil {
		return nil, err
	}
	return &oracleTarget{st: store.New(s, fds, store.Options{}), l: d.layout()}, nil
}

func (t *oracleTarget) do(o *op) (bool, error) { return outcome(o, t.apply(o)) }

func (t *oracleTarget) deleteRow(r *row) error {
	ti := t.st.Find(rowTuple(r, t.l.arity()))
	if ti < 0 {
		return fmt.Errorf("oracle: no tuple %v to delete", rowStrings(r, t.l.arity()))
	}
	return t.st.Delete(ti)
}

func (t *oracleTarget) apply(o *op) error {
	arity := t.l.arity()
	switch o.kind {
	case opQuery:
		if !o.capture {
			return nil
		}
		// A scan for the row whose cells equal the conjuncts' constants:
		// the query engine would answer the same, but only after
		// rebuilding an index over the whole instance on every call.
		t.captured = nil
		t.st.Each(func(_ int, tup relation.Tuple) bool {
			for i := 0; i < o.npred; i++ {
				if v := tup[o.preds[i].attr]; !v.IsConst() || v.Const() != o.preds[i].val.String() {
					return true
				}
			}
			t.captured = tup.Clone()
			return false
		})
		if t.captured == nil {
			return errors.New("oracle: capturing query matched no row")
		}
		return nil
	case opInsert:
		return t.st.InsertRow(rowStrings(&o.rows[0], arity)...)
	case opUpdate:
		match := t.captured
		if !o.useCapture {
			match = rowTuple(&o.rows[0], arity)
		}
		ti := t.st.Find(match)
		if ti < 0 {
			return fmt.Errorf("oracle: no tuple %v to update", match)
		}
		return t.st.Update(ti, schema.Attr(o.attr), cellValue(o.val))
	case opDelete:
		return t.deleteRow(&o.rows[0])
	case opTxnInsert:
		for i := 0; i < o.nrows; i++ {
			if err := t.st.InsertRow(rowStrings(&o.rows[i], arity)...); err != nil {
				return err
			}
		}
		return nil
	case opTxnDelete:
		for i := 0; i < o.nrows; i++ {
			if err := t.deleteRow(&o.rows[i]); err != nil {
				return err
			}
		}
		return nil
	}
	return fmt.Errorf("unknown op kind %d", o.kind)
}

// canonicalRows renders tuples for comparison modulo mark renaming:
// rows are sorted by their constant cells (every scheme here has a
// constant, unique key, so that order is total), then marks are
// renumbered by first appearance.
func canonicalRows(rows [][]string) []string {
	constKey := func(r []string) string {
		var sb strings.Builder
		for _, c := range r {
			if strings.HasPrefix(c, "-") {
				sb.WriteString("-")
			} else {
				sb.WriteString(c)
			}
			sb.WriteByte(0)
		}
		return sb.String()
	}
	keys := make([]string, len(rows))
	order := make([]int, len(rows))
	for i, r := range rows {
		keys[i], order[i] = constKey(r), i
	}
	sort.Slice(order, func(i, j int) bool { return keys[order[i]] < keys[order[j]] })
	rename := make(map[string]int)
	out := make([]string, len(rows))
	for i, ri := range order {
		r := rows[ri]
		cells := make([]string, len(r))
		for j, c := range r {
			if strings.HasPrefix(c, "-") {
				k, seen := rename[c]
				if !seen {
					k = len(rename) + 1
					rename[c] = k
				}
				c = fmt.Sprintf("-%d", k)
			}
			cells[j] = c
		}
		out[i] = strings.Join(cells, " ")
	}
	return out
}

func tupleStrings(t relation.Tuple) []string {
	out := make([]string, len(t))
	for i, v := range t {
		out[i] = v.String()
	}
	return out
}

// storeRows lists an oracle store's tuples as cell strings.
func (t *oracleTarget) rows() [][]string {
	out := make([][]string, 0, t.st.Len())
	t.st.Each(func(_ int, tup relation.Tuple) bool {
		out = append(out, tupleStrings(tup))
		return true
	})
	return out
}

// diffRows reports the first difference between two canonical row
// lists, or "" when they are equal.
func diffRows(got, want []string) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d rows, oracle has %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Sprintf("row %d is [%s], oracle has [%s]", i, got[i], want[i])
		}
	}
	return ""
}

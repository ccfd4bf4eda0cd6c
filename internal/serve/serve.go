// Package serve is the fdserve daemon core: named, isolated,
// constraint-maintained tenant stores behind a newline-delimited JSON
// TCP protocol. cmd/fdserve is a thin flag-and-signal wrapper around
// this package; bench/ and this package's wire tests boot it in-process
// to drive a live daemon over real sockets.
package serve

import (
	"bufio"
	"bytes"
	"context"
	"crypto/subtle"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"os"
	"slices"
	"sort"
	"strings"
	"sync"

	fdnull "fdnull"
	"fdnull/internal/schema"
	"fdnull/internal/value"
)

// ---- tenant configuration ----

// DomainSpec is one attribute domain: either an explicit value list or
// the {prefix1 … prefixN} integer family.
type DomainSpec struct {
	Name   string   `json:"name"`
	Values []string `json:"values,omitempty"`
	Prefix string   `json:"prefix,omitempty"`
	Size   int      `json:"size,omitempty"`
}

// AttrSpec names one attribute and its domain.
type AttrSpec struct {
	Name   string     `json:"name"`
	Domain DomainSpec `json:"domain"`
}

// SchemeSpec is a declarative relation scheme.
type SchemeSpec struct {
	Name  string     `json:"name"`
	Attrs []AttrSpec `json:"attrs"`
}

// TenantSpec is one named isolated store: its scheme, dependency set,
// shard layout, auth token, and optional durable directory.
type TenantSpec struct {
	Name   string     `json:"name"`
	Token  string     `json:"token"`
	Shards int        `json:"shards,omitempty"` // default 1
	Key    []string   `json:"key"`              // shard-key attribute names
	Scheme SchemeSpec `json:"scheme"`
	FDs    string     `json:"fds"`           // "X -> Y; ..." syntax
	Dir    string     `json:"dir,omitempty"` // durable when set
}

// Config is the daemon's tenant set.
type Config struct {
	Tenants []TenantSpec `json:"tenants"`
}

// LoadConfig reads and strictly decodes a JSON config file.
func LoadConfig(path string) (*Config, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var cfg Config
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&cfg); err != nil {
		return nil, fmt.Errorf("config %s: %w", path, err)
	}
	if len(cfg.Tenants) == 0 {
		return nil, fmt.Errorf("config %s: no tenants", path)
	}
	return &cfg, nil
}

func buildDomain(sp DomainSpec) (*fdnull.Domain, error) {
	switch {
	case len(sp.Values) > 0 && sp.Prefix != "":
		return nil, fmt.Errorf("domain %s: values and prefix/size are mutually exclusive", sp.Name)
	case len(sp.Values) > 0:
		return fdnull.NewDomain(sp.Name, sp.Values...)
	case sp.Prefix != "" && sp.Size > 0:
		return schema.NewIntDomain(sp.Name, sp.Prefix, sp.Size)
	default:
		return nil, fmt.Errorf("domain %s: need values or prefix+size", sp.Name)
	}
}

// tenant is one running store plus its auth token.
type tenant struct {
	name   string
	token  string
	scheme *fdnull.Scheme
	store  *fdnull.ShardedStore
	// plain[a]: every value of attribute a's domain is its own JSON
	// string body. A stored constant is one of them, so replies skip
	// the escape scan on a.
	plain []bool
}

// newTenant is the one way a tenant is built: it works out plain.
func newTenant(name, token string, scheme *fdnull.Scheme, st *fdnull.ShardedStore) *tenant {
	tn := &tenant{name: name, token: token, scheme: scheme, store: st, plain: make([]bool, scheme.Arity())}
	for a := range tn.plain {
		tn.plain[a] = !slices.ContainsFunc(scheme.Domain(fdnull.Attr(a)).Values, func(c string) bool { return !plain(c) })
	}
	return tn
}

func buildTenant(sp TenantSpec) (*tenant, error) {
	if sp.Name == "" {
		return nil, errors.New("tenant without a name")
	}
	names := make([]string, 0, len(sp.Scheme.Attrs))
	doms := make([]*fdnull.Domain, 0, len(sp.Scheme.Attrs))
	for _, a := range sp.Scheme.Attrs {
		d, err := buildDomain(a.Domain)
		if err != nil {
			return nil, fmt.Errorf("tenant %s: %w", sp.Name, err)
		}
		names = append(names, a.Name)
		doms = append(doms, d)
	}
	scheme, err := fdnull.NewScheme(sp.Scheme.Name, names, doms)
	if err != nil {
		return nil, fmt.Errorf("tenant %s: %w", sp.Name, err)
	}
	fds, err := fdnull.ParseFDs(scheme, sp.FDs)
	if err != nil {
		return nil, fmt.Errorf("tenant %s: %w", sp.Name, err)
	}
	key, err := scheme.Set(sp.Key...)
	if err != nil {
		return nil, fmt.Errorf("tenant %s: shard key: %w", sp.Name, err)
	}
	shards := sp.Shards
	if shards == 0 {
		shards = 1
	}
	sopts := fdnull.ShardedStoreOptions{Shards: shards, Key: key}
	var st *fdnull.ShardedStore
	if sp.Dir != "" {
		st, err = fdnull.OpenShardedStore(sp.Dir, scheme, fds, sopts, fdnull.DurableOptions{})
	} else {
		st, err = fdnull.NewShardedStore(scheme, fds, sopts)
	}
	if err != nil {
		return nil, fmt.Errorf("tenant %s: %w", sp.Name, err)
	}
	return newTenant(sp.Name, sp.Token, scheme, st), nil
}

// ---- wire protocol ----
//
// Newline-delimited JSON over TCP; one request per line, one response
// per line, lines capped at 1MB (an oversized request draws one error
// response and a disconnect). Every connection must authenticate first:
//
//	{"op":"auth","tenant":"hr","token":"..."}
//
// and is bound to that tenant afterwards. Ops:
//
//	ping                         liveness
//	insert  row=[cells]          guarded insert ("-" fresh null, "-k" ⊥k)
//	update  match=[cells] attr value   overwrite one cell of the committed
//	                             tuple identical to match (cells "-k"/"!"
//	                             literal, "-" refused: ambiguous)
//	delete  match=[cells]        remove the committed tuple
//	txn     ops=[{op,...}]       apply a write-set atomically (2PC when
//	                             it spans shards)
//	query   where="A = a1 and ..." three-valued selection (and/or/not/in);
//	                             sure/maybe rows
//	discover [maxlhs=k]          mine the minimal FD cover holding in a
//	                             snapshot of the instance
//	check                        weak+strong satisfiability of the union
//	stats                        logical op counters, shard count, and
//	                             per-shard WAL health
//	len                          total tuples
//
// Responses: {"ok":true,...} or {"ok":false,"error":"...",
// "conflict":true|"rejected":true} for first-committer-wins aborts and
// constraint rejections respectively.

type wireOp struct {
	Op    string   `json:"op"`
	Row   []string `json:"row,omitempty"`
	Match []string `json:"match,omitempty"`
	Attr  string   `json:"attr,omitempty"`
	Value string   `json:"value,omitempty"`
}

type request struct {
	Op     string   `json:"op"`
	Tenant string   `json:"tenant,omitempty"`
	Token  string   `json:"token,omitempty"`
	Row    []string `json:"row,omitempty"`
	Match  []string `json:"match,omitempty"`
	Attr   string   `json:"attr,omitempty"`
	Value  string   `json:"value,omitempty"`
	Ops    []wireOp `json:"ops,omitempty"`
	Where  string   `json:"where,omitempty"`
	MaxLHS int      `json:"maxlhs,omitempty"`
}

// requestKeys are request's JSON names, string fields first; wireOpKeys
// marks those a wireOp has (op, attr, value, row, match).
var requestKeys = [...]string{"op", "attr", "value", "tenant", "token", "where", "row", "match", "ops", "maxlhs"}

const wireOpKeys = 1<<0 | 1<<1 | 1<<2 | 1<<6 | 1<<7

// lineDecoder is one connection's request decoder. scan reads a line in
// the canonical shape — an object of requestKeys, each at most once;
// strings of printable ASCII without `\`, arrays of them, ops an array of
// such objects, maxlhs up to nine digits; JSON whitespace between tokens —
// without reflection, and decode leaves every other line to
// encoding/json, so no result or error text depends on which decoder ran.
// A string scan stores is a substring of the line's one string; the cell
// and op slices are the connection's, reused from line to line.
type lineDecoder struct {
	s     string
	i     int
	cells []string
	ops   []wireOp
	op    request // the op object being read
}

// decode zeroes req and fills it from line.
func (d *lineDecoder) decode(line []byte, req *request) error {
	if d.scan(line, req) {
		return nil
	}
	*req = request{}
	return json.Unmarshal(line, req)
}

func (d *lineDecoder) scan(line []byte, req *request) bool {
	*req = request{} // a field the last request sent must not carry over
	if d.cells == nil {
		// Non-nil, so an empty array reads as encoding/json's empty slice.
		d.cells, d.ops = make([]string, 0, 16), make([]wireOp, 0, 4)
	}
	d.s, d.i, d.cells, d.ops = string(line), 0, d.cells[:0], d.ops[:0]
	ok := d.fields(req, 1<<len(requestKeys)-1)
	d.space()
	return ok && d.i == len(d.s)
}

// trim drops the slices a request with very many cells or ops grew.
func (d *lineDecoder) trim() {
	if cap(d.cells) > 1<<14 || cap(d.ops) > 1<<12 {
		*d = lineDecoder{}
	}
}

// fields reads an object into r, taking each key of the keys mask once.
func (d *lineDecoder) fields(r *request, keys uint) bool {
	strField := [...]*string{&r.Op, &r.Attr, &r.Value, &r.Tenant, &r.Token, &r.Where}
	return d.list('{', '}', func() bool {
		key, ok := d.str()
		k := slices.Index(requestKeys[:], key)
		if !ok || k < 0 || keys&(1<<k) == 0 || !d.eat(':') {
			return false
		}
		keys &^= 1 << k
		switch {
		case k < len(strField):
			*strField[k], ok = d.str()
		case key == "row":
			r.Row, ok = d.strs()
		case key == "match":
			r.Match, ok = d.strs()
		case key == "ops":
			ok = d.list('[', ']', func() bool {
				op := &d.op
				*op = request{}
				ok := d.fields(op, wireOpKeys)
				d.ops = append(d.ops, wireOp{Op: op.Op, Row: op.Row, Match: op.Match, Attr: op.Attr, Value: op.Value})
				return ok
			})
			r.Ops = d.ops
		default:
			r.MaxLHS, ok = d.uint()
		}
		return ok
	})
}

// list reads open, elements separated by commas, then close.
func (d *lineDecoder) list(open, close byte, elem func() bool) bool {
	if !d.eat(open) {
		return false
	}
	for first := true; !d.eat(close); first = false {
		if !first && !d.eat(',') || !elem() {
			return false
		}
	}
	return true
}

func (d *lineDecoder) strs() ([]string, bool) {
	start := len(d.cells)
	ok := d.list('[', ']', func() bool {
		c, ok := d.str()
		d.cells = append(d.cells, c)
		return ok
	})
	return d.cells[start:len(d.cells):len(d.cells)], ok
}

func (d *lineDecoder) str() (string, bool) {
	if !d.eat('"') {
		return "", false
	}
	for start := d.i; d.i < len(d.s); d.i++ {
		if c := d.s[d.i]; c == '"' {
			d.i++
			return d.s[start : d.i-1], true
		} else if c < 0x20 || c >= 0x7f || c == '\\' {
			return "", false
		}
	}
	return "", false
}

// uint reads at most nine digits without a leading zero.
func (d *lineDecoder) uint() (int, bool) {
	d.space()
	n, start := 0, d.i
	for ; d.i < len(d.s) && '0' <= d.s[d.i] && d.s[d.i] <= '9'; d.i++ {
		n = n*10 + int(d.s[d.i]-'0')
	}
	digits := d.i - start
	return n, digits > 0 && digits <= 9 && (digits == 1 || d.s[start] != '0')
}

// eat consumes c after any JSON whitespace.
func (d *lineDecoder) eat(c byte) bool {
	d.space()
	if d.i < len(d.s) && d.s[d.i] == c {
		d.i++
		return true
	}
	return false
}

func (d *lineDecoder) space() {
	for d.i < len(d.s) && (d.s[d.i] == ' ' || d.s[d.i] == '\t' || d.s[d.i] == '\n' || d.s[d.i] == '\r') {
		d.i++
	}
}

// walHealth is one shard's durability state in a stats reply.
type walHealth struct {
	Shard         int    `json:"shard"`
	Mode          string `json:"mode"`
	SyncedSeq     uint64 `json:"synced_seq,omitempty"`
	NextSeq       uint64 `json:"next_seq,omitempty"`
	CheckpointSeq uint64 `json:"checkpoint_seq,omitempty"`
	Degradations  uint64 `json:"degradations,omitempty"`
	Err           string `json:"err,omitempty"`
}

type response struct {
	OK       bool        `json:"ok"`
	Error    string      `json:"error,omitempty"`
	Conflict bool        `json:"conflict,omitempty"`
	Rejected bool        `json:"rejected,omitempty"`
	Tenant   string      `json:"tenant,omitempty"`
	N        *int        `json:"n,omitempty"`
	FDs      []string    `json:"fds,omitempty"`
	Weak     *bool       `json:"weak,omitempty"`
	Strong   *bool       `json:"strong,omitempty"`
	Inserts  int         `json:"inserts,omitempty"`
	Updates  int         `json:"updates,omitempty"`
	Deletes  int         `json:"deletes,omitempty"`
	Rejects  int         `json:"rejects,omitempty"`
	Shards   int         `json:"shards,omitempty"`
	WAL      []walHealth `json:"wal,omitempty"`
}

func errResponse(err error) response {
	return response{
		OK:       false,
		Error:    err.Error(),
		Conflict: errors.Is(err, fdnull.ErrTxnConflict),
		Rejected: errors.Is(err, fdnull.ErrInconsistent),
	}
}

// parseMatchCell parses one cell of a content-addressing match row:
// constants verbatim, "-k" the marked null ⊥k, "!" refused (nothing is
// never stored), bare "-" refused (a fresh null cannot match anything).
func parseMatchCell(c string) (fdnull.Value, error) {
	switch c {
	case "-":
		return fdnull.Value{}, errors.New("bare \"-\" cannot address a committed tuple; use the explicit \"-k\" mark")
	case "!":
		return fdnull.Value{}, errors.New("the inconsistent element is never stored")
	}
	return value.Parse(c)
}

func (t *tenant) parseMatch(cells []string) (fdnull.Tuple, error) {
	if len(cells) != t.scheme.Arity() {
		return nil, fmt.Errorf("match arity %d, scheme arity %d", len(cells), t.scheme.Arity())
	}
	tup := make(fdnull.Tuple, len(cells))
	for i, c := range cells {
		v, err := parseMatchCell(c)
		if err != nil {
			return nil, err
		}
		tup[i] = v
	}
	return tup, nil
}

// parseValue parses an update's new cell: like a match cell, plus bare
// "-" drawing a fresh mark from the tenant's global allocator.
func (t *tenant) parseValue(c string) (fdnull.Value, error) {
	if c == "-" {
		return t.store.FreshNull(), nil
	}
	return parseMatchCell(c)
}

func (t *tenant) resolveAttr(name string) (fdnull.Attr, error) {
	a, ok := t.scheme.Attr(name)
	if !ok {
		return 0, fmt.Errorf("no attribute %q in scheme %s", name, t.scheme.Name())
	}
	return a, nil
}

// stageOp stages one wire op into an open sharded transaction.
func (t *tenant) stageOp(tx *fdnull.ShardedTxn, op wireOp) error {
	switch op.Op {
	case "insert":
		return tx.InsertRow(op.Row...)
	case "update":
		match, err := t.parseMatch(op.Match)
		if err != nil {
			return err
		}
		a, err := t.resolveAttr(op.Attr)
		if err != nil {
			return err
		}
		v, err := t.parseValue(op.Value)
		if err != nil {
			return err
		}
		return tx.Update(match, a, v)
	case "delete":
		match, err := t.parseMatch(op.Match)
		if err != nil {
			return err
		}
		return tx.Delete(match)
	default:
		return fmt.Errorf("unknown txn op %q", op.Op)
	}
}

// queryReply is one connection's scratch for query replies, the one
// reply whose size scales with the data. Rows are appended cell by cell
// while SelectVisit holds a shard's read lock — memory only, so a slow
// client cannot pin a shard; sure and maybe apart, since shards
// interleave them — and sent in one Write after every lock is released.
// The bytes are what encoding/json emits for {"ok":true,"sure":[[…]],
// "maybe":[[…]]} with omitempty on both lists. res is the selection's
// own scratch — its index lists and its planner — that SelectVisit
// fills shard by shard, so a read allocates nothing that grows with its
// answer.
type queryReply struct {
	sure, maybe, line []byte
	res               fdnull.SelectResult
}

// maxReplyScratch bounds the scratch a connection keeps between replies.
const maxReplyScratch = 1 << 20

// size is the bytes q keeps between replies.
func (q *queryReply) size() int {
	return cap(q.sure) + cap(q.maybe) + cap(q.line) + q.res.ScratchBytes()
}

// trim drops q's scratch once one large answer or predicate grew it past
// maxReplyScratch.
func (q *queryReply) trim() {
	if q.size() > maxReplyScratch {
		*q = queryReply{}
	}
}

// render answers where on tn; the line is valid until the next call.
func (q *queryReply) render(tn *tenant, where string) ([]byte, error) {
	p, err := fdnull.ParsePred(tn.scheme, where)
	if err != nil {
		return nil, err
	}
	q.sure, q.maybe = q.sure[:0], q.maybe[:0]
	tn.store.SelectVisit(p, &q.res, func(t fdnull.Tuple, sure bool) {
		if sure {
			q.sure = appendRow(q.sure, t, tn.plain)
		} else {
			q.maybe = appendRow(q.maybe, t, tn.plain)
		}
	})
	q.line = append(q.line[:0], `{"ok":true`...)
	q.line = appendList(q.line, `,"sure":[`, q.sure)
	q.line = appendList(q.line, `,"maybe":[`, q.maybe)
	q.line = append(q.line, "}\n"...)
	return q.line, nil
}

// appendList appends one answer list after its opening, or nothing for
// an empty one (omitempty). Each row is led by a comma; the first goes.
func appendList(line []byte, open string, rows []byte) []byte {
	if len(rows) == 0 {
		return line
	}
	line = append(line, open...)
	line = append(line, rows[1:]...)
	return append(line, ']')
}

// appendRow appends `,["cell",…]`. A cell of printable ASCII outside
// the five bytes encoding/json escapes (HTML escaping is on) is its own
// JSON string body, and null marks and "!" always are; any other
// constant goes through json.Marshal, so no escaping rule is restated.
// A constant of an attribute plain marks is not scanned.
func appendRow(b []byte, t fdnull.Tuple, plainAttr []bool) []byte {
	b = append(b, ',', '[')
	for i, v := range t {
		if i > 0 {
			b = append(b, ',')
		}
		if v.IsConst() && !plainAttr[i] && !plain(v.Const()) {
			quoted, _ := json.Marshal(v.Const()) // a string always marshals
			b = append(b, quoted...)
			continue
		}
		b = append(b, '"')
		b = append(v.AppendString(b), '"')
	}
	return append(b, ']')
}

func plain(cell string) bool {
	for i := 0; i < len(cell); i++ {
		if c := cell[i]; c < 0x20 || c >= 0x7f || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			return false
		}
	}
	return true
}

// ---- server ----

// Server hosts the tenant stores and speaks the wire protocol.
type Server struct {
	tenants map[string]*tenant
	ln      net.Listener

	mu       sync.Mutex
	conns    map[net.Conn]struct{}
	draining bool
	wg       sync.WaitGroup
}

// New builds every tenant store. On error no tenant is left open.
func New(cfg *Config) (*Server, error) {
	srv := &Server{tenants: make(map[string]*tenant), conns: make(map[net.Conn]struct{})}
	for _, sp := range cfg.Tenants {
		if _, dup := srv.tenants[sp.Name]; dup {
			return nil, fmt.Errorf("duplicate tenant %q", sp.Name)
		}
		tn, err := buildTenant(sp)
		if err != nil {
			srv.CloseTenants() // errcheck:ok abandoning a partially built tenant set
			return nil, err
		}
		srv.tenants[sp.Name] = tn
	}
	return srv, nil
}

// Listen binds the TCP listener.
func (srv *Server) Listen(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	srv.ln = ln
	return nil
}

// Addr is the bound listen address (valid after Listen).
func (srv *Server) Addr() string { return srv.ln.Addr().String() }

// TenantInfo lists the tenants as "name (S=shards)", sorted.
func (srv *Server) TenantInfo() []string {
	names := make([]string, 0, len(srv.tenants))
	for name, tn := range srv.tenants {
		names = append(names, fmt.Sprintf("%s (S=%d)", name, tn.store.NumShards()))
	}
	sort.Strings(names)
	return names
}

// Serve accepts until the listener closes (shutdown) and returns after
// every accepted connection was registered.
func (srv *Server) Serve() {
	for {
		conn, err := srv.ln.Accept()
		if err != nil {
			return // listener closed: shutting down
		}
		srv.mu.Lock()
		if srv.draining {
			srv.mu.Unlock()
			conn.Close() // errcheck:ok refusing a connection that raced shutdown
			continue
		}
		srv.conns[conn] = struct{}{}
		srv.wg.Add(1)
		srv.mu.Unlock()
		go func() {
			defer func() {
				srv.mu.Lock()
				delete(srv.conns, conn)
				srv.mu.Unlock()
				conn.Close() // errcheck:ok second close after protocol EOF is a no-op
				srv.wg.Done()
			}()
			srv.handle(conn)
		}()
	}
}

// Shutdown stops accepting, waits for in-flight connections up to the
// context deadline, force-closes stragglers, then checkpoints and closes
// every tenant store: a durable tenant's next start adopts the
// checkpoint and replays nothing (an in-memory tenant has neither step).
func (srv *Server) Shutdown(ctx context.Context) error {
	srv.mu.Lock()
	srv.draining = true
	srv.mu.Unlock()
	if srv.ln != nil {
		srv.ln.Close() // errcheck:ok double close on shutdown race is fine
	}
	done := make(chan struct{})
	go func() {
		srv.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		srv.mu.Lock()
		for conn := range srv.conns {
			conn.Close() // errcheck:ok force-closing drained stragglers
		}
		srv.mu.Unlock()
		<-done
	}
	var first error
	for _, tn := range srv.tenants {
		if err := tn.store.Checkpoint(); err != nil && first == nil {
			first = fmt.Errorf("tenant %s: checkpoint: %w", tn.name, err)
		}
	}
	if err := srv.CloseTenants(); first == nil {
		first = err
	}
	return first
}

// CloseTenants closes every tenant store without touching the listener
// and without a checkpoint — the startup-failure path; Shutdown calls it
// on the normal one, after checkpointing.
func (srv *Server) CloseTenants() error {
	var first error
	for _, tn := range srv.tenants {
		if err := tn.store.Close(); err != nil && first == nil {
			first = fmt.Errorf("tenant %s: %w", tn.name, err)
		}
	}
	return first
}

// handle speaks the line protocol on one connection.
func (srv *Server) handle(conn net.Conn) {
	sc := bufio.NewScanner(conn)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	enc := json.NewEncoder(conn) // Encode is one Write per reply
	reply := func(resp response) bool { return enc.Encode(resp) == nil }
	var bound *tenant
	var qr queryReply
	var dec lineDecoder
	var req request // one per connection: Unmarshal puts it on the heap
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var resp response
		if err := dec.decode(line, &req); err != nil {
			resp = errResponse(fmt.Errorf("bad request: %w", err))
		} else if req.Op == "auth" {
			tn, err := srv.authenticate(req)
			if err != nil {
				resp = errResponse(err)
			} else {
				bound = tn
				resp = response{OK: true, Tenant: tn.name}
			}
		} else if bound == nil {
			resp = errResponse(errors.New("authenticate first: {\"op\":\"auth\",\"tenant\":...,\"token\":...}"))
		} else if req.Op == "query" {
			out, err := qr.render(bound, req.Where)
			if err == nil {
				if _, err = conn.Write(out); err != nil {
					return
				}
				qr.trim()
				dec.trim()
				continue
			}
			resp = errResponse(err)
		} else {
			resp = srv.dispatch(bound, req)
		}
		if !reply(resp) {
			return
		}
		dec.trim()
	}
	// A line beyond the 1MB cap poisons the scanner: the stream framing
	// is lost, so send one terminal error and disconnect rather than
	// leave the client waiting on a wedged connection.
	if errors.Is(sc.Err(), bufio.ErrTooLong) {
		reply(errResponse(errors.New("request line exceeds the 1MB cap")))
	}
}

// authenticate binds a connection to a tenant. The token comparison is
// constant-time; the tenant-existence probe is not hidden (names are
// not secrets here).
func (srv *Server) authenticate(req request) (*tenant, error) {
	tn, ok := srv.tenants[req.Tenant]
	if !ok {
		return nil, fmt.Errorf("unknown tenant %q", req.Tenant)
	}
	if subtle.ConstantTimeCompare([]byte(tn.token), []byte(req.Token)) != 1 {
		return nil, errors.New("bad token")
	}
	return tn, nil
}

func intp(n int) *int    { return &n }
func boolp(b bool) *bool { return &b }

func (srv *Server) dispatch(tn *tenant, req request) response {
	switch req.Op {
	case "ping":
		return response{OK: true, Tenant: tn.name}
	case "insert":
		if err := tn.store.InsertRow(req.Row...); err != nil {
			return errResponse(err)
		}
		return response{OK: true}
	case "update":
		match, err := tn.parseMatch(req.Match)
		if err != nil {
			return errResponse(err)
		}
		a, err := tn.resolveAttr(req.Attr)
		if err != nil {
			return errResponse(err)
		}
		v, err := tn.parseValue(req.Value)
		if err != nil {
			return errResponse(err)
		}
		if err := tn.store.UpdateTuple(match, a, v); err != nil {
			return errResponse(err)
		}
		return response{OK: true}
	case "delete":
		match, err := tn.parseMatch(req.Match)
		if err != nil {
			return errResponse(err)
		}
		if err := tn.store.DeleteTuple(match); err != nil {
			return errResponse(err)
		}
		return response{OK: true}
	case "txn":
		tx := tn.store.BeginTxn()
		for _, op := range req.Ops {
			if err := tn.stageOp(tx, op); err != nil {
				tx.Rollback()
				return errResponse(err)
			}
		}
		if err := tx.Commit(); err != nil {
			return errResponse(err)
		}
		return response{OK: true, N: intp(len(req.Ops))}
	case "discover":
		maxLHS := req.MaxLHS
		if maxLHS <= 0 {
			maxLHS = 1
		}
		fds, err := fdnull.DiscoverCover(tn.store.Snapshot(), fdnull.DiscoverOptions{MaxLHS: maxLHS})
		if err != nil {
			return errResponse(err)
		}
		strs := make([]string, len(fds))
		for i, f := range fds {
			strs[i] = f.Format(tn.scheme)
		}
		return response{OK: true, N: intp(len(fds)), FDs: strs}
	case "check":
		return response{OK: true, Weak: boolp(tn.store.CheckWeak()), Strong: boolp(tn.store.CheckStrong())}
	case "stats":
		ins, upd, del, rej := tn.store.Stats()
		wal := make([]walHealth, 0, tn.store.NumShards())
		for i, h := range tn.store.ShardHealth() {
			w := walHealth{
				Shard: i, Mode: h.Mode,
				SyncedSeq: h.SyncedSeq, NextSeq: h.NextSeq, CheckpointSeq: h.CheckpointSeq,
				Degradations: h.Degradations,
			}
			if h.Err != nil {
				w.Err = h.Err.Error()
			}
			wal = append(wal, w)
		}
		return response{OK: true, Inserts: ins, Updates: upd, Deletes: del, Rejects: rej,
			Shards: tn.store.NumShards(), WAL: wal}
	case "len":
		return response{OK: true, N: intp(tn.store.Len())}
	default:
		return errResponse(fmt.Errorf("unknown op %q", req.Op))
	}
}

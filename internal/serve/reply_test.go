package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	fdnull "fdnull"
	"fdnull/internal/value"
)

// oldQueryResponse is the reply struct the daemon marshalled query answers
// through before they were rendered by append: the reference the appended
// bytes are held to. (Every other field of the old struct was omitempty
// and zero on a query reply.)
type oldQueryResponse struct {
	OK    bool       `json:"ok"`
	Sure  [][]string `json:"sure,omitempty"`
	Maybe [][]string `json:"maybe,omitempty"`
}

// oldReplyLine is what the daemon used to send for an answer: SelectTuples,
// every cell through String(), the struct through json.Encoder.
func oldReplyLine(t testing.TB, tn *tenant, where string) []byte {
	t.Helper()
	p, err := fdnull.ParsePred(tn.scheme, where)
	if err != nil {
		t.Fatalf("ParsePred(%q): %v", where, err)
	}
	rows := func(ts []fdnull.Tuple) [][]string {
		out := make([][]string, len(ts))
		for i, tup := range ts {
			for _, v := range tup {
				out[i] = append(out[i], v.String())
			}
		}
		return out
	}
	sure, maybe := tn.store.SelectTuples(p, fdnull.QueryOptions{})
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(oldQueryResponse{OK: true, Sure: rows(sure), Maybe: rows(maybe)}); err != nil {
		t.Fatalf("encode: %v", err)
	}
	return buf.Bytes()
}

// shutdownTestServer drains srv; the deferred close of the test's own
// client runs after it, so the deadline cuts that connection.
func shutdownTestServer(t *testing.T, srv *Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Errorf("shutdown: %v", err)
	}
}

// replyTenant builds a 2-shard memory tenant R(K, A, B, F) keyed on K with
// no dependencies, whose A and B columns range over vals: any byte string
// can be a stored constant, so any byte string can be a reply cell.
func replyTenant(t testing.TB, keys int, vals []string) *tenant {
	t.Helper()
	val, err := fdnull.NewDomain("val", vals...)
	if err != nil {
		t.Fatalf("NewDomain: %v", err)
	}
	filter, _ := fdnull.NewDomain("filter", "x", "y")
	scheme, err := fdnull.NewScheme("R", []string{"K", "A", "B", "F"},
		[]*fdnull.Domain{fdnull.IntDomain("key", "k", keys), val, val, filter})
	if err != nil {
		t.Fatalf("NewScheme: %v", err)
	}
	key, _ := scheme.Set("K")
	st, err := fdnull.NewShardedStore(scheme, nil, fdnull.ShardedStoreOptions{Shards: 2, Key: key})
	if err != nil {
		t.Fatalf("NewShardedStore: %v", err)
	}
	return &tenant{name: "t", scheme: scheme, store: st}
}

// FuzzQueryReplyMatchesEncodingJSON holds the appended reply to
// encoding/json byte for byte: for three fuzzed cell strings — stored as
// constants, or as the marked null they spell — and the four answer
// shapes (sure only, maybe only, both, neither), over rows that live on
// both shards so sure and maybe rows interleave in visiting order, the
// line render produces equals the old struct through json.Encoder.
func FuzzQueryReplyMatchesEncodingJSON(f *testing.F) {
	for shape := uint8(0); shape < 4; shape++ {
		f.Add(`"`, `\`, `<>&`, shape)
		f.Add("\x00\x1f\n\t", "\u2028\u2029", "\xff\xfe bad utf8 \xc3", shape)
		f.Add("", "-7", "-0", shape)
		f.Add("plain", "\x7f", "é ☃ 😀", shape)
		f.Add("!", "-", "--5", shape)
	}
	f.Fuzz(func(t *testing.T, a, b, c string, shape uint8) {
		cells := []string{a, b, c}
		vals := []string{"x"} // a constant that is never a fuzzed cell's null spelling
		var stored []fdnull.Value
		for _, cell := range cells {
			v, err := value.Parse(cell)
			if err != nil || !v.IsNull() {
				v = fdnull.Const(cell) // "!", bare "-" and malformed "-…" are constants here
				if !slices.Contains(vals, cell) {
					vals = append(vals, cell)
				}
			}
			stored = append(stored, v)
		}
		tn := replyTenant(t, 8, vals)
		for i := 0; i < 6; i++ {
			// Rows 0–2 are sure answers of F = x when shape bit 0 is set,
			// rows 3–5 maybe answers (a null F) when bit 1 is; otherwise no
			// answer at all.
			filter := fdnull.Const("y")
			switch {
			case i < 3 && shape&1 != 0:
				filter = fdnull.Const("x")
			case i >= 3 && shape&2 != 0:
				filter = tn.store.FreshNull()
			}
			row := fdnull.Tuple{fdnull.Const(fmt.Sprintf("k%d", i+1)), stored[i%3], stored[(i+1)%3], filter}
			if err := tn.store.Insert(row); err != nil {
				t.Fatalf("insert %v: %v", row, err)
			}
		}
		var qr queryReply
		for _, where := range []string{"F = x", "K = k1 and F = x", "K = k5", "F = y"} {
			got, err := qr.render(tn, where)
			if err != nil {
				t.Fatalf("render(%q): %v", where, err)
			}
			if want := oldReplyLine(t, tn, where); !bytes.Equal(got, want) {
				t.Fatalf("where %q, shape %d, cells %q:\nappended %q\nencoding/json %q", where, shape&3, cells, got, want)
			}
		}
	})
}

// TestServeQueryReplyAllocs pins what a query costs the daemon past
// request decoding — parse, route, plan, probe, render — as allocation
// counts. No per-row allocation: a group answer twice as long costs at
// most the few extra slice doublings of the planner's row lists (49 and 51
// at 300 and 600 rows when this was written; through Clone, [][]string and
// the reflection encoder the same two answers cost 663 and 1,266). And a
// point read stays at its measured count, all of it the predicate parser's
// and the planner's: 19, against 39 before (21 while the index probe and
// the shard router built their keys on the heap).
func TestServeQueryReplyAllocs(t *testing.T) {
	const n = 300
	tn := replyTenant(t, 3*n, []string{"a1", "a2", "b1"})
	for i := 0; i < 3*n; i++ {
		a := "a1" // n rows of a1, 2n rows of a2
		if i >= n {
			a = "a2"
		}
		if err := tn.store.InsertRow(fmt.Sprintf("k%d", i+1), a, "b1", "x"); err != nil {
			t.Fatalf("insert: %v", err)
		}
	}
	var qr queryReply
	allocs := func(where string, rows int) float64 {
		line, err := qr.render(tn, where) // also warms the indexes and the scratch
		if err != nil || bytes.Count(line, []byte(`["k`)) != rows {
			t.Fatalf("render(%q) = %d rows (%v), want %d", where, bytes.Count(line, []byte(`["k`)), err, rows)
		}
		return testing.AllocsPerRun(20, func() { qr.render(tn, where) })
	}
	point := allocs("K = k7", 1)
	group, group2 := allocs("A = a1", n), allocs("A = a2", 2*n)
	t.Logf("allocations per query: point %.0f, %d-row group %.0f, %d-row group %.0f", point, n, group, 2*n, group2)
	if group2 > group+4 {
		t.Errorf("a %d-row answer allocates %.0f, a %d-row answer %.0f: rendering allocates per row", 2*n, group2, n, group)
	}
	if point > 19 {
		t.Errorf("a point read allocates %.0f, pinned at 19", point)
	}
}

// TestServeQueryReplyOverTheWire drives the rendered reply through a real
// connection: a cell that needs escaping, a routed and an unrouted read,
// an empty answer, and an answer far beyond any fixed buffer — each line
// byte-identical to the reflection encoder's, and the connection still in
// frame afterwards.
func TestServeQueryReplyOverTheWire(t *testing.T) {
	cfg := `{"tenants": [{"name": "t", "token": "tok", "shards": 2, "key": ["K"],
	  "scheme": {"name": "R", "attrs": [
	    {"name": "K", "domain": {"name": "key", "prefix": "k", "size": 4096}},
	    {"name": "A", "domain": {"name": "val", "values": ["a<b", "x&y", "plain", "q\"uote"]}}]},
	  "fds": "K -> A"}]}`
	path := filepath.Join(t.TempDir(), "tenants.json")
	if err := os.WriteFile(path, []byte(cfg), 0o644); err != nil {
		t.Fatal(err)
	}
	srv := startTestServer(t, path)
	defer shutdownTestServer(t, srv)
	tn := srv.tenants["t"]
	c := dialClient(t, srv.Addr())
	defer c.conn.Close() // errcheck:ok test client teardown
	c.mustOK(t, map[string]any{"op": "auth", "tenant": "t", "token": "tok"})
	vals := []string{"a<b", "x&y", "plain", `q"uote`, "-"}
	for i := 0; i < 3000; i++ {
		c.mustOK(t, map[string]any{"op": "insert", "row": []string{fmt.Sprintf("k%d", i+1), vals[i%len(vals)]}})
	}
	for _, where := range []string{"K = k1", "K = k1 and A = a<b", "A = plain", "K = k4096", "A = a<b or A = x&y", "not(K = k1)", "K = k2"} {
		req, _ := json.Marshal(map[string]any{"op": "query", "where": where})
		if _, err := c.conn.Write(append(req, '\n')); err != nil {
			t.Fatalf("write: %v", err)
		}
		if !c.sc.Scan() {
			t.Fatalf("connection closed on %q: %v", where, c.sc.Err())
		}
		got := append(append([]byte(nil), c.sc.Bytes()...), '\n')
		if want := oldReplyLine(t, tn, where); !bytes.Equal(got, want) {
			t.Errorf("where %q: %d bytes on the wire, encoding/json writes %d:\n%.200q\n%.200q", where, len(got), len(want), got, want)
		}
	}
	if resp := c.call(t, map[string]any{"op": "query", "where": "nope = 1"}); resp["ok"] == true || resp["error"] == nil {
		t.Errorf("a predicate that does not parse answered %v", resp)
	}
	if resp := c.mustOK(t, map[string]any{"op": "len"}); resp["n"] != float64(3000) {
		t.Errorf("len after the query replies: %v", resp)
	}
}

// TestServeMalformedNullCells: the wire reads a "-k" cell by the row
// parser's one strict definition. The spellings fmt.Sscanf used to let
// through — trailing bytes, a second sign, a base prefix — are refused on
// insert, in a write-set, and as match and value cells, and store nothing.
func TestServeMalformedNullCells(t *testing.T) {
	srv := startTestServer(t, writeTestConfig(t, ""))
	defer shutdownTestServer(t, srv)
	c := dialClient(t, srv.Addr())
	defer c.conn.Close() // errcheck:ok test client teardown
	c.mustOK(t, map[string]any{"op": "auth", "tenant": "hr", "token": "hr-secret"})
	c.mustOK(t, map[string]any{"op": "insert", "row": []string{"k1", "a1", "-7"}})
	for _, cell := range []string{"-5abc", "--5", "-0x10", "-+5", "- 5", "-5 ", "-99999999999999999999"} {
		for name, req := range map[string]map[string]any{
			"insert": {"op": "insert", "row": []string{"k2", "a1", cell}},
			"txn":    {"op": "txn", "ops": []map[string]any{{"op": "insert", "row": []string{"k2", "a1", cell}}}},
			"match":  {"op": "delete", "match": []string{"k1", "a1", cell}},
			"value":  {"op": "update", "match": []string{"k1", "a1", "-7"}, "attr": "B", "value": cell},
		} {
			resp := c.call(t, req)
			if resp["ok"] == true || !strings.Contains(fmt.Sprint(resp["error"]), "bad null cell") {
				t.Errorf("%s with cell %q: %v, want a bad-null-cell refusal", name, cell, resp)
			}
		}
	}
	resp := c.mustOK(t, map[string]any{"op": "query", "where": "K = k1 or K = k2"})
	if got := fmt.Sprint(resp["sure"]); got != "[[k1 a1 -7]]" || resp["maybe"] != nil {
		t.Errorf("after the refusals the store answers sure %v maybe %v, want the one well-formed row", resp["sure"], resp["maybe"])
	}
}

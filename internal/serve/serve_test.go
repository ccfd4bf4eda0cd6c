package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

func writeTestConfig(t *testing.T, durableDir string) string {
	t.Helper()
	dir := t.TempDir()
	durable := ""
	if durableDir != "" {
		durable = fmt.Sprintf(`, "dir": %q`, durableDir)
	}
	cfg := fmt.Sprintf(`{"tenants": [
	  {"name": "hr", "token": "hr-secret", "shards": 4, "key": ["K"],
	   "scheme": {"name": "R", "attrs": [
	     {"name": "K", "domain": {"name": "key", "prefix": "k", "size": 512}},
	     {"name": "A", "domain": {"name": "alpha", "prefix": "a", "size": 16}},
	     {"name": "B", "domain": {"name": "beta", "prefix": "b", "size": 16}}]},
	   "fds": "K -> A; K -> B"%s},
	  {"name": "ops", "token": "ops-secret", "key": ["E#"],
	   "scheme": {"name": "S", "attrs": [
	     {"name": "E#", "domain": {"name": "emp", "prefix": "e", "size": 32}},
	     {"name": "SL", "domain": {"name": "sal", "values": ["low", "high"]}}]},
	   "fds": "E# -> SL"}
	]}`, durable)
	path := filepath.Join(dir, "tenants.json")
	if err := os.WriteFile(path, []byte(cfg), 0o644); err != nil {
		t.Fatalf("write config: %v", err)
	}
	return path
}

func startTestServer(t *testing.T, cfgPath string) *Server {
	t.Helper()
	cfg, err := LoadConfig(cfgPath)
	if err != nil {
		t.Fatalf("LoadConfig: %v", err)
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatalf("listen: %v", err)
	}
	go srv.Serve()
	return srv
}

// client is a minimal line-protocol driver for the tests.
type client struct {
	conn net.Conn
	sc   *bufio.Scanner
}

func dialClient(t *testing.T, addr string) *client {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	sc := bufio.NewScanner(conn)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	return &client{conn: conn, sc: sc}
}

func (c *client) call(t *testing.T, req map[string]any) map[string]any {
	t.Helper()
	data, err := json.Marshal(req)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	return c.callRaw(t, string(data))
}

// callRaw sends one pre-encoded line, bypassing the JSON encoder so
// tests can send malformed requests.
func (c *client) callRaw(t *testing.T, line string) map[string]any {
	t.Helper()
	if _, err := c.conn.Write(append([]byte(line), '\n')); err != nil {
		t.Fatalf("write: %v", err)
	}
	if !c.sc.Scan() {
		t.Fatalf("connection closed mid-call (req %s): %v", line, c.sc.Err())
	}
	var resp map[string]any
	if err := json.Unmarshal(c.sc.Bytes(), &resp); err != nil {
		t.Fatalf("bad response %q: %v", c.sc.Text(), err)
	}
	return resp
}

func (c *client) mustOK(t *testing.T, req map[string]any) map[string]any {
	t.Helper()
	resp := c.call(t, req)
	if resp["ok"] != true {
		t.Fatalf("request %v failed: %v", req, resp["error"])
	}
	return resp
}

// TestServeSmoke is the smoke-serve workload: boot the daemon, hit it
// with N concurrent authenticated clients doing cross-shard txns on one
// tenant and singleton ops on another, verify isolation and the
// constraint invariant over the wire, then shut down cleanly.
func TestServeSmoke(t *testing.T) {
	srv := startTestServer(t, writeTestConfig(t, ""))
	addr := srv.Addr()

	// Auth gating: wrong token refused, ops before auth refused.
	c := dialClient(t, addr)
	if resp := c.call(t, map[string]any{"op": "len"}); resp["ok"] == true {
		t.Fatalf("unauthenticated op accepted")
	}
	if resp := c.call(t, map[string]any{"op": "auth", "tenant": "hr", "token": "wrong"}); resp["ok"] == true {
		t.Fatalf("bad token accepted")
	}
	if resp := c.call(t, map[string]any{"op": "auth", "tenant": "nope", "token": "x"}); resp["ok"] == true {
		t.Fatalf("unknown tenant accepted")
	}
	c.mustOK(t, map[string]any{"op": "auth", "tenant": "hr", "token": "hr-secret"})
	c.mustOK(t, map[string]any{"op": "ping"})
	c.conn.Close() // errcheck:ok test client teardown

	clients := 6
	txnsPer := 8
	if testing.Short() {
		clients, txnsPer = 3, 4
	}
	var wg sync.WaitGroup
	for w := 0; w < clients; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl := dialClient(t, addr)
			defer cl.conn.Close() // errcheck:ok test client teardown
			cl.mustOK(t, map[string]any{"op": "auth", "tenant": "hr", "token": "hr-secret"})
			for j := 0; j < txnsPer; j++ {
				// A 3-row batch with disjoint keys per client: routinely
				// spans shards, so commits exercise the 2PC path.
				base := (w*txnsPer + j) * 3
				ops := make([]map[string]any, 0, 3)
				for r := 0; r < 3; r++ {
					ops = append(ops, map[string]any{
						"op":  "insert",
						"row": []string{fmt.Sprintf("k%d", base+r+1), fmt.Sprintf("a%d", w+1), "-"},
					})
				}
				resp := cl.call(t, map[string]any{"op": "txn", "ops": ops})
				if resp["ok"] != true && resp["conflict"] != true {
					t.Errorf("client %d txn %d: %v", w, j, resp["error"])
					return
				}
				if resp["conflict"] == true {
					j-- // first-committer-wins abort: retry the batch
				}
			}
		}()
	}
	wg.Wait()

	admin := dialClient(t, addr)
	defer admin.conn.Close() // errcheck:ok test client teardown
	admin.mustOK(t, map[string]any{"op": "auth", "tenant": "hr", "token": "hr-secret"})
	want := float64(clients * txnsPer * 3)
	if resp := admin.mustOK(t, map[string]any{"op": "len"}); resp["n"] != want {
		t.Fatalf("len over the wire: %v, want %v", resp["n"], want)
	}
	if resp := admin.mustOK(t, map[string]any{"op": "check"}); resp["weak"] != true {
		t.Fatalf("weak satisfiability lost: %v", resp)
	}
	stats := admin.mustOK(t, map[string]any{"op": "stats"})
	if stats["shards"] != float64(4) || stats["inserts"] != want {
		t.Fatalf("stats over the wire: %v", stats)
	}
	// In-memory tenant: WAL health present, every shard reports "memory".
	wal, _ := stats["wal"].([]any)
	if len(wal) != 4 {
		t.Fatalf("stats wal entries: %d, want 4: %v", len(wal), stats)
	}
	for _, entry := range wal {
		if m := entry.(map[string]any)["mode"]; m != "memory" {
			t.Fatalf("in-memory shard reports WAL mode %v", m)
		}
	}
	q := admin.mustOK(t, map[string]any{"op": "query", "where": "A = a1"})
	sure, _ := q["sure"].([]any)
	if len(sure) != txnsPer*3 {
		t.Fatalf("query sure answers: %d, want %d", len(sure), txnsPer*3)
	}

	// Discovery over the wire: K functionally determines A and B in the
	// inserted instance, so a maxlhs=1 cover must be non-empty.
	d := admin.mustOK(t, map[string]any{"op": "discover", "maxlhs": 1})
	if n, _ := d["n"].(float64); n < 1 {
		t.Fatalf("wire discovery found no dependencies: %v", d)
	}

	// Constraint rejection surfaces as rejected=true: k1 already has a
	// forced A value a1 (client 0 inserted it), clash with a16.
	if resp := admin.call(t, map[string]any{"op": "insert", "row": []string{"k1", "a16", "-"}}); resp["ok"] == true || resp["rejected"] != true {
		t.Fatalf("constraint violation not rejected: %v", resp)
	}

	// Tenant isolation: the second tenant neither sees hr's rows nor
	// accepts hr's token.
	other := dialClient(t, addr)
	defer other.conn.Close() // errcheck:ok test client teardown
	if resp := other.call(t, map[string]any{"op": "auth", "tenant": "ops", "token": "hr-secret"}); resp["ok"] == true {
		t.Fatalf("cross-tenant token accepted")
	}
	other.mustOK(t, map[string]any{"op": "auth", "tenant": "ops", "token": "ops-secret"})
	if resp := other.mustOK(t, map[string]any{"op": "len"}); resp["n"] != float64(0) {
		t.Fatalf("tenant isolation broken: ops sees %v tuples", resp["n"])
	}
	other.mustOK(t, map[string]any{"op": "insert", "row": []string{"e1", "low"}})
	other.mustOK(t, map[string]any{"op": "update", "match": []string{"e1", "low"}, "attr": "SL", "value": "high"})
	if resp := other.mustOK(t, map[string]any{"op": "len"}); resp["n"] != float64(1) {
		t.Fatalf("ops tenant len: %v", resp["n"])
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	// The listener is gone after shutdown.
	if _, err := net.DialTimeout("tcp", addr, 200*time.Millisecond); err == nil {
		t.Fatalf("listener still accepting after shutdown")
	}
}

// TestServeProtocolErrors drives every protocol error path and proves
// none of them wedges a connection or the server: malformed JSON, an
// unknown op, a wrong token after a successful auth, and a request line
// beyond the 1MB cap (one error reply, then disconnect).
func TestServeProtocolErrors(t *testing.T) {
	srv := startTestServer(t, writeTestConfig(t, ""))
	addr := srv.Addr()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Fatalf("shutdown: %v", err)
		}
	}()

	c := dialClient(t, addr)
	defer c.conn.Close() // errcheck:ok test client teardown

	// Malformed JSON draws a clean error, not a disconnect.
	if resp := c.callRaw(t, `{"op": "auth", "tenant": `); resp["ok"] == true ||
		!strings.Contains(resp["error"].(string), "bad request") {
		t.Fatalf("malformed JSON: %v", resp)
	}
	// Not even JSON at all.
	if resp := c.callRaw(t, `GET / HTTP/1.1`); resp["ok"] == true {
		t.Fatalf("non-JSON line accepted: %v", resp)
	}
	// The connection still authenticates after garbage.
	c.mustOK(t, map[string]any{"op": "auth", "tenant": "hr", "token": "hr-secret"})

	// Unknown op after auth: clean error, connection lives.
	if resp := c.call(t, map[string]any{"op": "compact"}); resp["ok"] == true ||
		!strings.Contains(resp["error"].(string), "unknown op") {
		t.Fatalf("unknown op: %v", resp)
	}

	// A failed re-auth (wrong token) reports the error and leaves the
	// existing binding intact.
	if resp := c.call(t, map[string]any{"op": "auth", "tenant": "hr", "token": "wrong"}); resp["ok"] == true {
		t.Fatalf("wrong token on re-auth accepted")
	}
	if resp := c.call(t, map[string]any{"op": "auth", "tenant": "hr"}); resp["ok"] == true {
		t.Fatalf("missing token on re-auth accepted")
	}
	c.mustOK(t, map[string]any{"op": "ping"})

	// Malformed payloads on real ops: wrong arity, bad attr, bad cells.
	for _, req := range []map[string]any{
		{"op": "insert", "row": []string{"k1"}},
		{"op": "update", "match": []string{"k1", "a1", "b1"}, "attr": "Z", "value": "b2"},
		{"op": "update", "match": []string{"k1", "-", "b1"}, "attr": "B", "value": "b2"},
		{"op": "delete", "match": []string{"!", "a1", "b1"}},
		{"op": "query", "where": "Z ="},
		{"op": "txn", "ops": []map[string]any{{"op": "vacuum"}}},
	} {
		if resp := c.call(t, req); resp["ok"] == true {
			t.Fatalf("malformed %v accepted", req)
		}
	}
	c.mustOK(t, map[string]any{"op": "ping"})

	// An oversized line (beyond the 1MB scanner cap) poisons the stream:
	// the server sends one terminal error, then disconnects.
	big := dialClient(t, addr)
	defer big.conn.Close() // errcheck:ok test client teardown
	big.mustOK(t, map[string]any{"op": "auth", "tenant": "hr", "token": "hr-secret"})
	line := append([]byte(`{"op":"ping","token":"`), make([]byte, 2<<20)...)
	for i := range line[22:] {
		line[22+i] = 'x'
	}
	line = append(line, []byte("\"}\n")...)
	if _, err := big.conn.Write(line); err != nil {
		t.Fatalf("write oversized line: %v", err)
	}
	if !big.sc.Scan() {
		t.Fatalf("no reply to oversized line: %v", big.sc.Err())
	}
	var resp map[string]any
	if err := json.Unmarshal(big.sc.Bytes(), &resp); err != nil {
		t.Fatalf("bad oversized-line reply %q: %v", big.sc.Text(), err)
	}
	if resp["ok"] == true || !strings.Contains(resp["error"].(string), "1MB") {
		t.Fatalf("oversized line reply: %v", resp)
	}
	// ... and then the disconnect.
	if big.sc.Scan() {
		t.Fatalf("connection still open after oversized line: %q", big.sc.Text())
	}

	// The server is not wedged: a fresh connection works.
	after := dialClient(t, addr)
	defer after.conn.Close() // errcheck:ok test client teardown
	after.mustOK(t, map[string]any{"op": "auth", "tenant": "hr", "token": "hr-secret"})
	after.mustOK(t, map[string]any{"op": "ping"})
}

// TestServeRequestFieldsDoNotCarryOver: a connection decodes every request
// into one reused struct, so each field a request sends must be gone from
// the next request that omits it — a where, a row, an update's attribute
// and value, an auth token. Each omission must draw the refusal the field's
// absence earns, not an answer built from the last request's field.
func TestServeRequestFieldsDoNotCarryOver(t *testing.T) {
	srv := startTestServer(t, writeTestConfig(t, ""))
	defer shutdownTestServer(t, srv)
	c := dialClient(t, srv.Addr())
	defer c.conn.Close() // errcheck:ok test client teardown
	c.mustOK(t, map[string]any{"op": "auth", "tenant": "hr", "token": "hr-secret"})
	c.mustOK(t, map[string]any{"op": "insert", "row": []string{"k1", "a1", "b1"}})
	c.mustOK(t, map[string]any{"op": "update", "match": []string{"k1", "a1", "b1"}, "attr": "B", "value": "b2"})
	if resp := c.mustOK(t, map[string]any{"op": "query", "where": "K = k1"}); fmt.Sprint(resp["sure"]) != "[[k1 a1 b2]]" {
		t.Fatalf("K = k1 answered %v", resp["sure"])
	}
	for _, step := range []struct {
		req  map[string]any
		want string // in the refusal
	}{
		{map[string]any{"op": "query"}, "empty predicate"},
		{map[string]any{"op": "insert"}, "arity"},
		{map[string]any{"op": "update", "match": []string{"k1", "a1", "b2"}}, "no attribute"},
		{map[string]any{"op": "auth", "tenant": "hr"}, "bad token"},
	} {
		resp := c.call(t, step.req)
		if resp["ok"] == true || !strings.Contains(fmt.Sprint(resp["error"]), step.want) {
			t.Errorf("%v after a request that sent the omitted field: %v, want a refusal naming %q", step.req, resp, step.want)
		}
	}
	if resp := c.mustOK(t, map[string]any{"op": "query", "where": "K = k1"}); fmt.Sprint(resp["sure"]) != "[[k1 a1 b2]]" {
		t.Errorf("after the refusals K = k1 answered %v, want the one updated row", resp["sure"])
	}
}

// TestServeRefusesMarkZero: "-0" would store ⊥0, which prints as a fresh
// "-" and so would not read back from a checkpoint as the same unknown.
// An insert, a txn insert, an update value and a match cell spelling it
// are refused, and the tenant's rows and counters are unchanged.
func TestServeRefusesMarkZero(t *testing.T) {
	srv := startTestServer(t, writeTestConfig(t, ""))
	defer shutdownTestServer(t, srv)
	c := dialClient(t, srv.Addr())
	defer c.conn.Close() // errcheck:ok test client teardown
	c.mustOK(t, map[string]any{"op": "auth", "tenant": "hr", "token": "hr-secret"})
	c.mustOK(t, map[string]any{"op": "insert", "row": []string{"k1", "a1", "-3"}})
	before := c.mustOK(t, map[string]any{"op": "stats"})
	if before["inserts"] != float64(1) {
		t.Fatalf("stats before the refusals: %v, want 1 insert", before)
	}
	for _, req := range []map[string]any{
		{"op": "insert", "row": []string{"k2", "a1", "-0"}},
		{"op": "txn", "ops": []map[string]any{{"op": "insert", "row": []string{"k3", "-0", "b1"}}}},
		{"op": "update", "match": []string{"k1", "a1", "-3"}, "attr": "B", "value": "-0"},
		{"op": "update", "match": []string{"k1", "a1", "-0"}, "attr": "B", "value": "b1"},
	} {
		if resp := c.call(t, req); resp["ok"] == true || resp["rejected"] == true || !strings.Contains(fmt.Sprint(resp["error"]), `"-0"`) {
			t.Errorf("%v answered %v, want a structural refusal naming \"-0\"", req, resp)
		}
	}
	if resp := c.mustOK(t, map[string]any{"op": "len"}); resp["n"] != float64(1) {
		t.Errorf("len after the refusals: %v, want 1", resp["n"])
	}
	if resp := c.mustOK(t, map[string]any{"op": "query", "where": "K = k1"}); fmt.Sprint(resp["sure"]) != "[[k1 a1 -3]]" {
		t.Errorf("K = k1 answered %v, want the row as inserted", resp["sure"])
	}
	after := c.mustOK(t, map[string]any{"op": "stats"})
	for _, k := range []string{"inserts", "updates", "deletes", "rejects"} {
		if before[k] != after[k] {
			t.Errorf("stats %s moved %v -> %v", k, before[k], after[k])
		}
	}
}

// TestServeDurableTenant proves a durable tenant's state survives a
// daemon restart: insert over the wire, shut down (which checkpoints
// through Close), boot a second server on the same directory, read the
// rows back. The stats reply's WAL health must show live sequence
// numbers for the durable shards.
func TestServeDurableTenant(t *testing.T) {
	wal := t.TempDir()
	cfgPath := writeTestConfig(t, wal)
	srv := startTestServer(t, cfgPath)

	c := dialClient(t, srv.Addr())
	c.mustOK(t, map[string]any{"op": "auth", "tenant": "hr", "token": "hr-secret"})
	c.mustOK(t, map[string]any{"op": "txn", "ops": []map[string]any{
		{"op": "insert", "row": []string{"k1", "a1", "-"}},
		{"op": "insert", "row": []string{"k2", "a2", "b2"}},
		{"op": "insert", "row": []string{"k3", "-", "b3"}},
	}})
	stats := c.mustOK(t, map[string]any{"op": "stats"})
	entries, _ := stats["wal"].([]any)
	if len(entries) != 4 {
		t.Fatalf("durable tenant wal entries: %d, want 4", len(entries))
	}
	healthy, synced := 0, 0
	for _, e := range entries {
		h := e.(map[string]any)
		if h["mode"] == "healthy" {
			healthy++
		}
		if s, _ := h["synced_seq"].(float64); s > 0 {
			synced++
		}
	}
	if healthy != 4 || synced == 0 {
		t.Fatalf("durable WAL health: %d healthy, %d with synced seqs: %v", healthy, synced, entries)
	}
	c.conn.Close() // errcheck:ok test client teardown
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}

	re := startTestServer(t, cfgPath)
	c2 := dialClient(t, re.Addr())
	defer c2.conn.Close() // errcheck:ok test client teardown
	c2.mustOK(t, map[string]any{"op": "auth", "tenant": "hr", "token": "hr-secret"})
	if resp := c2.mustOK(t, map[string]any{"op": "len"}); resp["n"] != float64(3) {
		t.Fatalf("durable tenant lost rows across restart: %v", resp["n"])
	}
	if resp := c2.mustOK(t, map[string]any{"op": "check"}); resp["weak"] != true {
		t.Fatalf("recovered tenant unsatisfiable: %v", resp)
	}
	// The clean shutdown checkpointed every shard, so this start replayed
	// nothing: each manifest's checkpoint subsumes the whole log.
	logged := 0
	for _, e := range c2.mustOK(t, map[string]any{"op": "stats"})["wal"].([]any) {
		h := e.(map[string]any)
		next, _ := h["next_seq"].(float64)
		ckpt, _ := h["checkpoint_seq"].(float64)
		if ckpt != next-1 {
			t.Errorf("shard %v: checkpoint_seq %v, next_seq %v: %v records replayed after a clean shutdown",
				h["shard"], ckpt, next, next-1-ckpt)
		}
		if next > 1 {
			logged++
		}
	}
	if logged == 0 {
		t.Error("no shard logged a record before the shutdown; the check above is vacuous")
	}
	ctx2, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel2()
	if err := re.Shutdown(ctx2); err != nil {
		t.Fatalf("second shutdown: %v", err)
	}
}

// TestLoadConfigErrors pins config rejection: unknown fields, no
// tenants, missing file.
func TestLoadConfigErrors(t *testing.T) {
	dir := t.TempDir()
	write := func(name, body string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	if _, err := LoadConfig(filepath.Join(dir, "missing.json")); err == nil {
		t.Fatal("missing config accepted")
	}
	if _, err := LoadConfig(write("empty.json", `{"tenants": []}`)); err == nil {
		t.Fatal("empty tenant list accepted")
	}
	if _, err := LoadConfig(write("unknown.json", `{"tenants": [], "extra": 1}`)); err == nil {
		t.Fatal("unknown field accepted")
	}
	// The maintenance engine is no longer a tenant setting: the key is
	// refused by name, not silently ignored.
	_, err := LoadConfig(write("maintenance.json", `{"tenants": [{"name": "hr", "maintenance": "recheck"}]}`))
	if err == nil || !strings.Contains(err.Error(), `unknown field "maintenance"`) {
		t.Fatalf("tenant with a maintenance key: err = %v", err)
	}
	if _, err := New(&Config{Tenants: []TenantSpec{{Name: ""}}}); err == nil {
		t.Fatal("nameless tenant accepted")
	}
	// A domain value the cell notation reads as a null or as "!" is
	// refused when the tenant is built, in either domain form.
	for _, dom := range []DomainSpec{{Name: "d", Prefix: "-", Size: 3}, {Name: "d", Values: []string{"-1", "!", "a"}}} {
		spec := TenantSpec{Name: "t", Token: "tok", Shards: 1, Key: []string{"K"},
			Scheme: SchemeSpec{Name: "R", Attrs: []AttrSpec{{Name: "K", Domain: dom}}}}
		if _, err := New(&Config{Tenants: []TenantSpec{spec}}); err == nil || !strings.Contains(err.Error(), "cell notation") {
			t.Errorf("tenant over domain %+v: err = %v, want the domain refused", dom, err)
		}
	}
}

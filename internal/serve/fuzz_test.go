package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net"
	"testing"
)

// FuzzServeRequest sends arbitrary bytes as ONE request line down an
// authenticated connection of an in-memory tenant, through handle itself
// (decode, then dispatch / stageOp / the query renderer). Whatever the
// line holds: no panic; exactly one reply line, itself a JSON object with
// an "ok" field (the ping sent after it is answered next, so nothing else
// was written); and a refused line leaves the tenant's row count and its
// insert/update/delete counters where they were — only a constraint
// rejection may count itself.
func FuzzServeRequest(f *testing.F) {
	for _, line := range serveRequestSeeds {
		f.Add([]byte(line))
	}
	dom := func(name, prefix string) DomainSpec { return DomainSpec{Name: name, Prefix: prefix, Size: 8} }
	cfg := &Config{Tenants: []TenantSpec{{
		Name: "t", Token: "tok", Shards: 2, Key: []string{"K"}, FDs: "K -> A; K -> B",
		Scheme: SchemeSpec{Name: "R", Attrs: []AttrSpec{
			{Name: "K", Domain: dom("key", "k")}, {Name: "A", Domain: dom("alpha", "a")}, {Name: "B", Domain: dom("beta", "b")}}},
	}}}
	f.Fuzz(func(t *testing.T, line []byte) {
		if bytes.IndexByte(line, '\n') >= 0 || len(bytes.TrimSpace(line)) == 0 {
			t.Skip("not one request line") // handle splits on \n and skips blank lines
		}
		srv, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		st := srv.tenants["t"].store
		for _, row := range [][]string{{"k1", "a1", "-7"}, {"k2", "a2", "b2"}} {
			if err := st.InsertRow(row...); err != nil {
				t.Fatal(err)
			}
		}
		client, server := net.Pipe()
		done := make(chan struct{})
		go func() {
			defer close(done)
			srv.handle(server)
		}()
		defer func() {
			client.Close() // errcheck:ok test teardown; handle returns on the EOF
			<-done
		}()
		replies := bufio.NewReader(client)
		call := func(req []byte) []byte {
			if _, err := client.Write(append(req, '\n')); err != nil {
				t.Fatalf("write %q: %v", req, err)
			}
			reply, err := replies.ReadBytes('\n')
			if err != nil {
				t.Fatalf("no reply to %q: %v", req, err)
			}
			return reply
		}
		call([]byte(`{"op":"auth","tenant":"t","token":"tok"}`))

		n := st.Len()
		ins, upd, del, rej := st.Stats()
		var resp struct {
			OK       *bool `json:"ok"`
			Rejected bool  `json:"rejected"`
		}
		reply := call(line)
		if err := json.Unmarshal(reply, &resp); err != nil || resp.OK == nil {
			t.Fatalf("reply to %q is not a response object: %q (%v)", line, reply, err)
		}
		if pong := call([]byte(`{"op":"ping"}`)); !bytes.Equal(pong, []byte("{\"ok\":true,\"tenant\":\"t\"}\n")) {
			t.Fatalf("%q was answered by more than one line: the ping after it read %q", line, pong)
		}
		if !*resp.OK {
			ins2, upd2, del2, rej2 := st.Stats()
			if resp.Rejected {
				rej2--
			}
			if st.Len() != n || ins2 != ins || upd2 != upd || del2 != del || rej2 != rej {
				t.Fatalf("refused %q (%s) yet len %d -> %d, stats (%d %d %d %d) -> (%d %d %d %d)",
					line, reply, n, st.Len(), ins, upd, del, rej, ins2, upd2, del2, rej2)
			}
		}
	})
}

// serveRequestSeeds is FuzzServeRequest's corpus; the decoder's fuzz
// starts from it too.
var serveRequestSeeds = []string{
	`{"op":"auth","tenant":"t","token":"tok"}`,
	`{"op":"auth","tenant":"t","token":"wrong"}`,
	`{"op":"ping"}`,
	`{"op":"insert","row":["k3","a1","-"]}`,
	`{"op":"insert","row":["k1","a2","b1"]}`, // K -> A refuses it
	`{"op":"update","match":["k1","a1","-7"],"attr":"B","value":"b2"}`,
	`{"op":"delete","match":["k2","a2","b2"]}`,
	`{"op":"txn","ops":[{"op":"insert","row":["k4","-","-"]},{"op":"update","match":["k1","a1","-7"],"attr":"B","value":"b1"},{"op":"delete","match":["k2","a2","b2"]}]}`,
	`{"op":"query","where":"K = k1 or B = b2"}`,
	`{"op":"discover","maxlhs":2}`,
	`{"op":"check"}`,
	`{"op":"stats"}`,
	`{"op":"len"}`,
	`{"op":"nope"}`,
	`{"op":"insert","row":["k5","a1"]}`,
	`{"op":"query","where":"K = "}`,
	`{"op":"insert","row":7}`,
	`{"op":`,
	`[]`,
	"\x00\xff",
	// TestServeMalformedNullCells' spellings, in each position a cell is read.
	`{"op":"insert","row":["k5","a1","-5abc"]}`,
	`{"op":"insert","row":["k5","a1","--5"]}`,
	`{"op":"txn","ops":[{"op":"insert","row":["k5","a1","-0x10"]}]}`,
	`{"op":"delete","match":["k1","a1","-+5"]}`,
	`{"op":"update","match":["k1","a1","-7"],"attr":"B","value":"- 5"}`,
	`{"op":"update","match":["k1","a1","-7"],"attr":"B","value":"-99999999999999999999"}`,
}

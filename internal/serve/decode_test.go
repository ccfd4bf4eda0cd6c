package serve

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"unsafe"

	fdnull "fdnull"
)

// FuzzRequestDecodeMatchesEncodingJSON holds the connection's decoder to
// encoding/json: whenever scan accepts a line, the request it fills is
// reflect.DeepEqual to what json.Unmarshal gives — empty versus nil slices
// included — and json.Unmarshal accepts the line too; and decode, the one
// call handle makes, returns json.Unmarshal's request and error text for
// every line, accepted or not. handle's reply is a function of those two,
// so it is the reply encoding/json alone led to. The decoder first reads a
// line with rows, ops and every string field, so a line that omits them
// must not see its scratch.
func FuzzRequestDecodeMatchesEncodingJSON(f *testing.F) {
	for _, line := range serveRequestSeeds {
		f.Add([]byte(line))
	}
	for _, line := range []string{
		`{"op":"insert","row":["k\"1","a1","-"]}`,
		`{"op":"insert","row":["k1","é","-"]}`,
		`{"op":"insert","row":["k1","\u00e9","-"]}`,
		`{"op":"insert","row":["k1","\ud83d\ude00","-"]}`,
		`{"op":"insert","row":["k1","😀","-"]}`,
		`{"OP":"ping"}`,
		`{"Op":"ping"}`,
		`{"op":"ping","extra":{"nested":{"op":"insert"}}}`,
		`{"op":"insert","row":["k1","a1","b1"],"row":["k2","a2","b2"]}`,
		`{"op":"insert","row":null}`,
		`{"op":"discover","maxlhs":2.0}`,
		`{"op":"discover","maxlhs":1e1}`,
		`{"op":"discover","maxlhs":-1}`,
		`{"op":"discover","maxlhs":0}`,
		`{"op":"discover","maxlhs":007}`,
		`{"op":"discover","maxlhs":99999999999999999999}`,
		"{\t\"op\" :\t\"txn\" , \"ops\" : [ {\"op\":\"insert\",\r\"row\":[ \"k1\" ,\"a1\",\"-\" ] } ] }",
		"{\"op\":\n\"ping\"}",
		`{"op":"insert","row":["k1","a1","-"],}`,
		`{"op":"txn","ops":[{"op":"insert","row":["k1","a1","-"]},]}`,
		`{"op":"txn","ops":[]}`,
		`{"op":"insert","row":[]}`,
		`{"op":"txn","ops":[{}]}`,
		`{"op":"txn","ops":[{"op":"insert","tenant":"t"}]}`,
		`{}`,
		`{"op":"ping"} {"op":"ping"}`,
		`{"op":"query","where":"K = k1\u0000"}`,
		"{\"op\":\"query\",\"where\":\"K = k1\x7f\"}",
	} {
		f.Add([]byte(line))
	}
	first := []byte(`{"op":"txn","tenant":"t","token":"tok","row":["k1"],"match":["k2"],"attr":"A","value":"v","where":"w","maxlhs":3,` +
		`"ops":[{"op":"insert","row":["k1","a1","-"],"match":["m"],"attr":"B","value":"b1"}]}`)
	f.Fuzz(func(t *testing.T, line []byte) {
		var want request
		wantErr := json.Unmarshal(line, &want)
		var d lineDecoder
		var got request
		if !d.scan(first, &got) || len(got.Ops) != 1 || got.MaxLHS != 3 {
			t.Fatalf("scan declined or misread the first line: %+v", got)
		}
		if d.scan(line, &got) {
			if wantErr != nil {
				t.Fatalf("scan accepted %q, which encoding/json refuses: %v", line, wantErr)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%q: scan read %#v, encoding/json %#v", line, got, want)
			}
		}
		err := d.decode(line, &got)
		if fmt.Sprint(err) != fmt.Sprint(wantErr) || (err == nil && !reflect.DeepEqual(got, want)) {
			t.Fatalf("%q: decode gave %#v (%v), encoding/json %#v (%v)", line, got, err, want, wantErr)
		}
	})
}

// empTenantConfig is EMP(D, E, SL, CT; D,E -> SL; D -> CT) on two shards
// keyed on D, with room for many write-sets of new employees.
func empTenantConfig() *Config {
	dom := func(name, prefix string, size int) AttrSpec {
		return AttrSpec{Name: name, Domain: DomainSpec{Name: name, Prefix: prefix, Size: size}}
	}
	return &Config{Tenants: []TenantSpec{{
		Name: "emp", Token: "tok", Shards: 2, Key: []string{"D"}, FDs: "D,E -> SL; D -> CT",
		Scheme: SchemeSpec{Name: "EMP", Attrs: []AttrSpec{
			dom("D", "d", empDepts), dom("E", "e", 4096), dom("SL", "s", 64), dom("CT", "c", 8)}},
	}}}
}

const empDepts = 4096

// appendEmpTxn appends write-set i of a bulk load as a txn line: 64 new
// employees, eight in each of eight departments, with a third of the
// salaries null and every contract but each department's first null (the
// NS-rule D -> CT fills them in). Write-sets walk the departments, so a
// department's group grows by eight rows per pass over all of them.
func appendEmpTxn(b []byte, i int) []byte {
	b = append(b, `{"op":"txn","ops":[`...)
	for j := 0; j < 64; j++ {
		d := (i*8+j/8)%empDepts + 1
		if j > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(append(b, `{"op":"insert","row":["d`...), int64(d), 10)
		b = strconv.AppendInt(append(b, `","e`...), int64(1+j%8+8*(i*8/empDepts)), 10)
		if j%3 == 0 {
			b = append(b, `","-`...)
		} else {
			b = strconv.AppendInt(append(b, `","s`...), int64(1+j), 10)
		}
		if j%8 == 0 {
			b = strconv.AppendInt(append(b, `","c`...), int64(1+d%8), 10)
		} else {
			b = append(b, `","-`...)
		}
		b = append(b, `"]}`...)
	}
	return append(b, "]}"...)
}

// TestServeRequestDecodeAllocs pins what decoding a request costs: the
// line's one string, which every cell and the where are substrings of,
// and nothing per cell or per op once the connection's slices have grown.
// A query line allocates at most once and a 64-op insert txn line at most
// 4 times (encoding/json's reflection took 6 and 489).
func TestServeRequestDecodeAllocs(t *testing.T) {
	var d lineDecoder
	var req request
	for _, c := range []struct {
		line []byte
		max  float64
	}{
		{[]byte(`{"op":"query","where":"K = k17"}`), 1},
		{appendEmpTxn(nil, 0), 4},
	} {
		if !d.scan(c.line, &req) {
			t.Fatalf("scan declined %.80q", c.line)
		}
		allocs := testing.AllocsPerRun(50, func() { d.decode(c.line, &req) })
		var ref request
		jsonAllocs := testing.AllocsPerRun(5, func() { ref = request{}; json.Unmarshal(c.line, &ref) })
		t.Logf("%.40q…: %.0f allocations (encoding/json %.0f)", c.line, allocs, jsonAllocs)
		if allocs > c.max {
			t.Errorf("%.40q… decodes in %.0f allocations, bound %.0f", c.line, allocs, c.max)
		}
	}
}

// BenchmarkServeTxn is the wire-to-commit cost of a bulk load's write-set:
// decode a 64-row EMP txn line with the connection's decoder, then stage
// and commit it through dispatch on a 2-shard in-memory tenant.
func BenchmarkServeTxn(b *testing.B) {
	srv, err := New(empTenantConfig())
	if err != nil {
		b.Fatal(err)
	}
	tn := srv.tenants["emp"]
	var d lineDecoder
	var req request
	var line []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		line = appendEmpTxn(line[:0], i)
		if err := d.decode(line, &req); err != nil {
			b.Fatal(err)
		}
		if resp := srv.dispatch(tn, req); !resp.OK {
			b.Fatalf("write-set %d: %s", i, resp.Error)
		}
	}
}

// TestStoredConstantsShareDomainStrings, through handle: an insert, a txn
// insert and an update arrive as request lines whose cells are substrings
// of the line's string, and every constant the tenant then stores is its
// domain's own string — no stored row keeps a request line alive.
func TestStoredConstantsShareDomainStrings(t *testing.T) {
	srv, err := New(empTenantConfig())
	if err != nil {
		t.Fatal(err)
	}
	tn := srv.tenants["emp"]
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
	for _, line := range []string{
		`{"op":"auth","tenant":"emp","token":"tok"}`,
		`{"op":"insert","row":["d1","e1","s1","c1"]}`,
		string(appendEmpTxn(nil, 1)),
		`{"op":"update","match":["d1","e1","s1","c1"],"attr":"SL","value":"s9"}`,
	} {
		if _, err := client.Write([]byte(line + "\n")); err != nil {
			t.Fatal(err)
		}
		reply, err := replies.ReadString('\n')
		if err != nil || !strings.HasPrefix(reply, `{"ok":true`) {
			t.Fatalf("%.60q answered %q (%v)", line, reply, err)
		}
	}
	rows := 0
	for i := 0; i < tn.store.NumShards(); i++ {
		v := tn.store.Shard(i).View()
		for r := 0; r < v.Len(); r++ {
			rows++
			for a, c := range v.Tuple(r) {
				if !c.IsConst() {
					continue
				}
				want, _ := tn.scheme.Domain(fdnull.Attr(a)).Canonical(c.Const())
				if unsafe.StringData(c.Const()) != unsafe.StringData(want) {
					t.Errorf("shard %d row %d attribute %s holds its own copy of %q", i, r, tn.scheme.AttrName(fdnull.Attr(a)), c.Const())
				}
			}
		}
	}
	if rows != 65 {
		t.Fatalf("the tenant holds %d rows, want 65", rows)
	}
}

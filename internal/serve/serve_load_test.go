package serve

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"fdnull/internal/workload"
)

// kvConfig builds a tenant set over the workload.KV scheme, one tenant
// per entry in tokens, sized for bound keys.
func kvConfig(tokens map[string]string, bound, shards int) *Config {
	cfg := &Config{}
	for name, token := range tokens {
		cfg.Tenants = append(cfg.Tenants, TenantSpec{
			Name: name, Token: token, Shards: shards, Key: []string{"K"},
			Scheme: SchemeSpec{Name: "KV", Attrs: []AttrSpec{
				{Name: "K", Domain: DomainSpec{Name: "key", Prefix: "k", Size: bound}},
				{Name: "A", Domain: DomainSpec{Name: "alpha", Prefix: "a", Size: 64}},
				{Name: "B", Domain: DomainSpec{Name: "beta", Prefix: "b", Size: 64}},
			}},
			FDs: "K -> A; K -> B",
		})
	}
	return cfg
}

// TestServeMixedLoad drives a live daemon with a seeded closed-loop
// client: workers on concurrent authenticated connections to two tenants,
// each issuing a fixed count of the full op mix. Inserts and deletes stay
// in the worker's own key range; reads, updates and txns hit the shared
// base keys, and a third of the txns stage a second A for one. Every reply
// must be ok, a conflict, a rejection or a missed target, and each tenant
// must end with exactly base + inserted - deleted rows, weakly satisfiable.
func TestServeMixedLoad(t *testing.T) {
	const tenants, workers, base = 2, 4, 24
	mixOps := []string{"query", "insert", "update", "delete", "txn", "discover"}
	mixCum := []int{40, 65, 80, 90, 98, 100} // cumulative weights out of 100
	ops := 200
	if testing.Short() {
		ops = 80
	}
	bound := base + workers*ops
	_, _, row := workload.KV(bound)
	srv, err := New(kvConfig(map[string]string{"t0": "tok0", "t1": "tok1"}, bound, 2))
	if err == nil {
		err = srv.Listen("127.0.0.1:0")
	}
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve()
	defer shutdownTestServer(t, srv)
	// Connection i is bound to tenant i%tenants: the first tenants preload
	// the base keys and check the end state, the rest are the workers'.
	conns := make([]*client, tenants+workers)
	for i := range conns {
		conns[i] = dialClient(t, srv.Addr())
		defer conns[i].conn.Close() // errcheck:ok test client teardown
		conns[i].mustOK(t, map[string]any{"op": "auth", "tenant": fmt.Sprint("t", i%tenants), "token": fmt.Sprint("tok", i%tenants)})
		for k := 0; i < tenants && k < base; k++ {
			conns[i].mustOK(t, map[string]any{"op": "insert", "row": row(k)})
		}
	}
	update := func(k int) map[string]any {
		return map[string]any{"op": "update", "match": row(k), "attr": "B", "value": row(k)[2]}
	}

	var counts [tenants][6][4]atomic.Int64 // replies per tenant, op class and outcome
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng, c := rand.New(rand.NewSource(int64(29+w))), conns[tenants+w]
			var own []int // this worker's live keys, from [base+w*ops, base+(w+1)*ops)
			next := base + w*ops
			for i := 0; i < ops; i++ {
				op, k, j := sort.SearchInts(mixCum, rng.Intn(100)+1), rng.Intn(base), rng.Intn(len(own)+1)
				target := next // j == len(own): a key not inserted yet, so the delete finds no target
				if j < len(own) {
					target = own[j]
				}
				txOps := []map[string]any{update(k), update((k + 1 + rng.Intn(base-1)) % base)}
				if rng.Intn(3) == 0 { // a second A for base key k: the commit is rejected
					txOps = append(txOps, map[string]any{"op": "insert", "row": []string{row(k)[0], row(k + 1)[1], row(k)[2]}})
				}
				resp := c.call(t, []map[string]any{
					{"op": "query", "where": "K = " + row(k)[0]}, {"op": "insert", "row": row(next)}, update(k),
					{"op": "delete", "match": row(target)}, {"op": "txn", "ops": txOps}, {"op": "discover", "maxlhs": 1},
				}[op])
				out := slices.Index([]bool{resp["ok"] == true, resp["conflict"] == true, resp["rejected"] == true,
					strings.Contains(fmt.Sprint(resp["error"]), "no committed tuple")}, true) // ok, conflict, rejected, no-target
				if out < 0 {
					t.Errorf("worker %d: %s: unclassified reply %v", w, mixOps[op], resp)
					return
				}
				counts[w%tenants][op][out].Add(1)
				switch {
				case out == 0 && mixOps[op] == "insert":
					own, next = append(own, next), next+1
				case out == 0 && mixOps[op] == "delete" && j < len(own):
					own[j], own = own[len(own)-1], own[:len(own)-1]
				}
			}
		}(w)
	}
	wg.Wait()
	for tn, c := range conns[:tenants] {
		for op, name := range mixOps {
			if counts[tn][op][0].Load() == 0 {
				t.Errorf("tenant t%d: no %s answered ok", tn, name)
			}
		}
		if counts[tn][4][1].Load()+counts[tn][4][2].Load() == 0 { // txn conflicts + rejections
			t.Errorf("tenant t%d: no txn conflicted or was rejected", tn)
		}
		n, weak := c.mustOK(t, map[string]any{"op": "len"})["n"], c.mustOK(t, map[string]any{"op": "check"})["weak"]
		if want := float64(base + counts[tn][1][0].Load() - counts[tn][3][0].Load()); n != want || weak != true { // + inserts - deletes
			t.Errorf("tenant t%d: len %v, weak %v over the wire; accounting says len %v, weak true", tn, n, weak, want)
		}
	}
}

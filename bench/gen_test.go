package main

import (
	"bytes"
	"testing"
)

// streamBytes renders the first n ops of a daemon workload's stream as
// the request lines the daemon would receive. Captured rows are
// reply-dependent and so not part of the stream; they render empty.
func streamBytes(t *testing.T, workload string, seed int64, n int) []byte {
	t.Helper()
	spec, err := daemonWorkload(workload, seed, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	gen := spec.newGen()
	l := spec.tenant.layout()
	var out []byte
	var o op
	for i := 0; i < n; i++ {
		gen.next(&o)
		out = o.appendWire(out, l, nil)
	}
	return out
}

func preloadBytes(t *testing.T, workload string, seed int64) []byte {
	t.Helper()
	spec, err := daemonWorkload(workload, seed, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	var out []byte
	spec.preload(func(r *row) { out = appendRow(out, r, len(spec.tenant.attrs)) })
	return out
}

func TestSameSeedSameStream(t *testing.T) {
	for _, w := range []string{"kv-read", "kv-durable", "emp-null-mixed"} {
		a := streamBytes(t, w, 7, 3000)
		if b := streamBytes(t, w, 7, 3000); !bytes.Equal(a, b) {
			t.Errorf("%s: the same seed gave two different streams", w)
		}
		if c := streamBytes(t, w, 8, 3000); bytes.Equal(a, c) {
			t.Errorf("%s: seeds 7 and 8 gave the same stream", w)
		}
		if !bytes.Equal(preloadBytes(t, w, 7), preloadBytes(t, w, 7)) {
			t.Errorf("%s: the same seed gave two different preloads", w)
		}
	}
	if bytes.Equal(preloadBytes(t, "emp-null-mixed", 7), preloadBytes(t, "emp-null-mixed", 8)) {
		t.Error("emp-null-mixed: seeds 7 and 8 gave the same instance")
	}
}

func batchOrder(seed int64, n int) []int {
	s := newBatchStream(seed)
	out := make([]int, 0, 2*n)
	for i := 0; i < n; i++ {
		cls, file := s.next()
		out = append(out, cls, file)
	}
	return out
}

func TestBatchStreamIsSeededAndStratified(t *testing.T) {
	a, b, c := batchOrder(3, 1930), batchOrder(3, 1930), batchOrder(4, 1930)
	same := func(x, y []int) bool {
		for i := range x {
			if x[i] != y[i] {
				return false
			}
		}
		return true
	}
	if !same(a, b) {
		t.Fatal("the same seed gave two different orders")
	}
	if same(a, c) {
		t.Fatal("seeds 3 and 4 gave the same order")
	}
	// Every block of 193 holds exactly the declared shares, and within a
	// class the files take turns.
	for block := 0; block < 10; block++ {
		var perClass [4]int
		for i := 0; i < 193; i++ {
			perClass[a[2*(block*193+i)]]++
		}
		if perClass != batchShares {
			t.Fatalf("block %d has class counts %v, want %v", block, perClass, batchShares)
		}
	}
	var perFile [4][batchFilesPerSize]int
	for i := 0; i < 1930; i++ {
		perFile[a[2*i]][a[2*i+1]]++
	}
	for cls, counts := range perFile {
		for _, n := range counts {
			if d := n - counts[0]; d < -1 || d > 1 {
				t.Fatalf("class %d: files were analysed %v times, want equal turns", cls, counts)
			}
		}
	}
}

func TestKVWriteStreamKeepsRowCountFlat(t *testing.T) {
	const live, slack = 200, 100
	g := newKVWriteGen(streamRNG(1), live, slack)
	present := make(map[int32]bool)
	for k := 0; k < live; k++ {
		present[int32(k+1)] = true
	}
	var o op
	for i := 0; i < 6*500; i++ {
		g.next(&o)
		for r := 0; r < o.nrows; r++ {
			key := o.rows[r][0].n
			switch o.kind {
			case opInsert, opTxnInsert:
				if present[key] {
					t.Fatalf("op %d inserts key %d, which is live", i, key)
				}
				present[key] = true
			case opDelete, opTxnDelete:
				if !present[key] {
					t.Fatalf("op %d deletes key %d, which is not live", i, key)
				}
				delete(present, key)
			case opUpdate:
				if !present[key] {
					t.Fatalf("op %d updates key %d, which is not live", i, key)
				}
				if o.val == o.rows[r][1] {
					t.Fatalf("op %d updates key %d to the value it already has", i, key)
				}
			}
		}
		if i%6 == 5 && len(present) != live {
			t.Fatalf("after cycle %d there are %d live keys, want %d", i/6, len(present), live)
		}
	}
}

func TestWireEncoding(t *testing.T) {
	l := layout{attrs: []string{"D", "E", "SL", "CT"}}
	q := op{kind: opQuery, npred: 2}
	q.preds[0] = pred{attr: 0, val: konst('d', 12)}
	q.preds[1] = pred{attr: 3, val: konst('c', 5)}
	if got, want := string(q.appendWire(nil, l, nil)), `{"op":"query","where":"D = d12 and CT = c5"}`+"\n"; got != want {
		t.Errorf("query renders as %s", got)
	}
	ins := op{kind: opInsert, nrows: 1}
	ins.rows[0] = empRow(3, 21, 0, freshNull)
	if got, want := string(ins.appendWire(nil, l, nil)), `{"op":"insert","row":["d3","e21","-","-"]}`+"\n"; got != want {
		t.Errorf("insert renders as %s", got)
	}
	upd := op{kind: opUpdate, useCapture: true, attr: 2, val: konst('s', 9)}
	captured := [][]byte{[]byte("d3"), []byte("e21"), []byte("-17"), []byte("c5")}
	if got, want := string(upd.appendWire(nil, l, captured)), `{"op":"update","match":["d3","e21","-17","c5"],"attr":"SL","value":"s9"}`+"\n"; got != want {
		t.Errorf("update renders as %s", got)
	}
	kv := layout{attrs: []string{"K", "A", "B"}}
	txn := op{kind: opTxnDelete, nrows: 2}
	txn.rows[0], txn.rows[1] = kvRow(0, 0), kvRow(1, 3)
	if got, want := string(txn.appendWire(nil, kv, nil)), `{"op":"txn","ops":[{"op":"delete","match":["k1","a1","b1"]},{"op":"delete","match":["k2","a5","b2"]}]}`+"\n"; got != want {
		t.Errorf("txn renders as %s", got)
	}
}

func TestCanonicalRowsIgnoreMarkNumbering(t *testing.T) {
	a := [][]string{{"d2", "e1", "-7", "-3"}, {"d1", "e1", "s4", "c1"}, {"d2", "e2", "s1", "-3"}}
	b := [][]string{{"d1", "e1", "s4", "c1"}, {"d2", "e2", "s1", "-40"}, {"d2", "e1", "-2", "-40"}}
	if d := diffRows(canonicalRows(a), canonicalRows(b)); d != "" {
		t.Fatalf("equal modulo renaming, yet: %s", d)
	}
	// Splitting the shared mark is a real difference.
	c := [][]string{{"d1", "e1", "s4", "c1"}, {"d2", "e2", "s1", "-41"}, {"d2", "e1", "-2", "-40"}}
	if d := diffRows(canonicalRows(a), canonicalRows(c)); d == "" {
		t.Fatal("a split NEC class compared equal")
	}
}

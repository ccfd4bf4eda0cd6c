package main

import (
	"math/rand"
)

// A generator yields the client's op stream. The stream is a pure
// function of the workload seed: it never looks at a reply, so replaying
// it — against the twin store of the traced run, or against the oracle at
// the end of a run — needs only the number of ops the client got through.
//
// There is one client on one connection. The reference machine has two
// cores of a shared host; one closed loop keeps one of them busy (client
// and handler take turns). Two loops filled both, and then every core the
// host took away for a moment showed in the median: see README.md, "How
// steady it is".
type generator interface {
	next(o *op)
}

func streamRNG(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + 17))
}

func scaled(n int, scale float64, floor int) int {
	m := int(float64(n) * scale)
	if m < floor {
		m = floor
	}
	return m
}

// ---- KV(K,A,B; K -> A, K -> B) ----

func kvTenant(name string, keys int, durable bool) tenantDef {
	return tenantDef{
		name: name, scheme: "KV",
		attrs:  []string{"K", "A", "B"},
		prefix: []byte{'k', 'a', 'b'},
		sizes:  []int{keys, 64, kvGroups},
		key:    "K", fds: "K -> A; K -> B",
		durable: durable,
	}
}

// kvGroups is the size of B's domain: the rows fall into that many
// groups of equal B.
const kvGroups = 256

// kvRow is the one well-formed row of key k at update version ver:
// every update moves A to the next of its 64 values, so an update always
// changes the cell and never collides with K -> A.
func kvRow(k int, ver uint8) row {
	return row{konst('k', k+1), konst('a', (k+int(ver))%64+1), konst('b', k%kvGroups+1)}
}

// kvReadGen issues 97 % uniform point queries K = k over the preloaded
// keys and 3 % group queries B = b, each answered with one 256th of the
// rows. The key space is far larger than the store's 1 024-entry result
// cache, so nearly every query is planned and probed.
//
// The group queries are there for p99. With point queries alone the
// 99th percentile is the scheduling tail of a saturated two-core
// machine, which moved by a quarter between two quiet-looking sets of
// runs; with them it is the two-thirds point of a designed mode — the
// latency of a several-hundred-row answer — at the cost of about a
// quarter of the throughput.
type kvReadGen struct {
	rng  *rand.Rand
	keys int
}

func (g *kvReadGen) next(o *op) {
	*o = op{kind: opQuery, class: clsPointRead, npred: 1}
	if g.rng.Intn(100) < 3 {
		o.class = clsGroupRead
		o.preds[0] = pred{attr: 2, val: konst('b', g.rng.Intn(kvGroups)+1)}
		return
	}
	o.preds[0] = pred{attr: 0, val: konst('k', g.rng.Intn(g.keys)+1)}
}

// kvWriteGen cycles insert, 4-row txn insert, update, update, delete,
// 4-row txn delete over a ring of keys: each cycle adds five rows at
// the head and removes five at the tail, so the row count stays flat
// however long the stream runs and the key domain stays small. The
// 4-row write-sets take consecutive keys, which hash to both shards
// seven times in eight, so most of them commit through 2PC.
type kvWriteGen struct {
	rng        *rand.Rand
	live, ring int // live rows, key-space size (live + slack)
	head, tail int
	ver        []uint8
	step       int
}

func newKVWriteGen(rng *rand.Rand, live, slack int) *kvWriteGen {
	return &kvWriteGen{rng: rng, live: live, ring: live + slack, head: live, ver: make([]uint8, live+slack)}
}

func (g *kvWriteGen) push() row {
	k := g.head
	g.head = (g.head + 1) % g.ring
	g.ver[k] = 0
	return kvRow(k, 0)
}

func (g *kvWriteGen) pop() row {
	k := g.tail
	g.tail = (g.tail + 1) % g.ring
	return kvRow(k, g.ver[k])
}

func (g *kvWriteGen) next(o *op) {
	switch g.step % 6 {
	case 0:
		*o = op{kind: opInsert, class: clsInsert, nrows: 1}
		o.rows[0] = g.push()
	case 1:
		*o = op{kind: opTxnInsert, class: clsTxn, nrows: txnRows}
		for i := range o.rows {
			o.rows[i] = g.push()
		}
	case 2, 3:
		// Ten keys at either end of the live range are left alone: they
		// are the ones this cycle inserts or deletes.
		k := (g.tail + 10 + g.rng.Intn(g.live-20)) % g.ring
		*o = op{kind: opUpdate, class: clsUpdate, nrows: 1, attr: 1}
		o.rows[0] = kvRow(k, g.ver[k])
		g.ver[k]++
		o.val = kvRow(k, g.ver[k])[1]
	case 4:
		*o = op{kind: opDelete, class: clsDelete, nrows: 1}
		o.rows[0] = g.pop()
	case 5:
		*o = op{kind: opTxnDelete, class: clsTxn, nrows: txnRows}
		for i := range o.rows {
			o.rows[i] = g.pop()
		}
	}
	g.step++
}

// ---- EMP(D,E,SL,CT; D,E -> SL; D -> CT) ----

const (
	empPerDept   = 20
	empMaxPerDpt = 1024 // E domain: room for inserts into the hottest department
	empSalaries  = 4096
	empContracts = 8
)

func empTenant(depts int) tenantDef {
	return tenantDef{
		name: "emp", scheme: "EMP",
		attrs:  []string{"D", "E", "SL", "CT"},
		prefix: []byte{'d', 'e', 's', 'c'},
		sizes:  []int{depts, empMaxPerDpt, empSalaries, empContracts},
		key:    "D", fds: "D,E -> SL; D -> CT",
	}
}

// empDept is the generator's knowledge of one department.
type empDept struct {
	ct      int  // contract type, 1-based
	known   bool // false: every row's CT is null, one NEC class
	nextE   int  // next unused employee number
	preload []empSeed
}

// empSeed is one preloaded employee: salary 0 means null, and nullCT
// means the row is loaded with a null contract (which the NS-rule
// replaces with the department's constant when the department has one).
type empSeed struct {
	sl     int
	nullCT bool
}

// empModel is the seed-determined EMP instance: 30 % of salaries and
// 30 % of contracts are null, and in every tenth department the contract
// is unknown in every row.
type empModel struct {
	depts []empDept // index d-1
}

func newEmpModel(seed int64, depts int) *empModel {
	rng := rand.New(rand.NewSource(seed*31 + 5))
	m := &empModel{depts: make([]empDept, depts)}
	for i := range m.depts {
		d := &m.depts[i]
		d.ct = 1 + rng.Intn(empContracts)
		d.known = i%10 != 9
		d.nextE = empPerDept + 1
		d.preload = make([]empSeed, empPerDept)
		for e := range d.preload {
			if rng.Float64() >= 0.3 {
				d.preload[e].sl = 1 + rng.Intn(empSalaries)
			}
			// The first row of a known department always carries the
			// constant, so the department's contract really is known.
			d.preload[e].nullCT = !d.known || (e > 0 && rng.Float64() < 0.3)
		}
	}
	return m
}

func empRow(d, e, sl int, ct cell) row {
	r := row{konst('d', d), konst('e', e), freshNull, ct}
	if sl > 0 {
		r[2] = konst('s', sl)
	}
	return r
}

// preloadRows yields the instance department by department.
func (m *empModel) preloadRows(yield func(*row)) {
	for i := range m.depts {
		d := &m.depts[i]
		for e, s := range d.preload {
			ct := konst('c', d.ct)
			if s.nullCT {
				ct = freshNull
			}
			r := empRow(i+1, e+1, s.sl, ct)
			yield(&r)
		}
	}
}

type empKey struct{ d, e int }

// empGen is the client's stream over the departments:
//
//	60.4 % point read   D = d and E = e
//	30 %   group read   D = d and CT = c   (sure rows when the contract
//	                    is known, maybe rows when it is not)
//	 6 %   insert       [d, e, -, -]       (the NS-rule forces CT)
//	 3 %   resolve      read the row, overwrite its salary mark
//	 0.3 % CT resolve   read a row of an unknown department, overwrite
//	                    the shared contract mark
//	 0.3 % doomed       insert with the wrong CT; must be rejected
//
// The kinds come in seed-shuffled blocks of a thousand holding exactly
// those shares, so every stretch of the stream has the same mix and no
// run's p99 depends on how many of the rare, slow kinds its seed happened
// to draw. Departments are picked Zipf-hot. A resolve is two ops (read, then
// update), so the second is queued in pending. A rejection costs a full
// chase, an order of magnitude more than anything else here, so the
// doomed share is kept well under 1 %: p99 then lies among the reads
// that rebuild an index after a write, not on the edge between those
// and the rejections.
type empGen struct {
	rng        *rand.Rand
	zipf       *rand.Zipf
	depts      []empDept // index d-1; department 1 is the hottest
	unresolved []empKey  // rows whose salary is still a mark
	unknown    []int     // departments whose contract is still unknown
	pending    op
	hasPending bool
	block      []uint8 // the current block's kinds, shuffled
	pos        int

	// counts of the paper's machinery the stream exercised
	forcedCT, resolved, ctResolved, doomed int
}

func newEmpGen(m *empModel, seed int64) *empGen {
	g := &empGen{rng: streamRNG(seed)}
	// A private copy of the table: the stream moves nextE and known, and
	// the model also feeds the preload of every replay of this run.
	g.depts = append([]empDept(nil), m.depts...)
	for d := 1; d <= len(g.depts); d++ {
		dep := &g.depts[d-1]
		if !dep.known {
			g.unknown = append(g.unknown, d)
		}
		for e, s := range dep.preload {
			if s.sl == 0 {
				g.unresolved = append(g.unresolved, empKey{d, e + 1})
			}
		}
	}
	g.zipf = rand.NewZipf(g.rng, 1.2, 1, uint64(len(g.depts)-1))
	for kind, share := range empShares {
		for i := 0; i < share; i++ {
			g.block = append(g.block, uint8(kind))
		}
	}
	g.pos = len(g.block)
	return g
}

// The kinds of a block and how many of each it holds, of a thousand.
const (
	empPoint = iota
	empGroup
	empInsert
	empResolve
	empCTResolve
	empDoomed
)

var empShares = [...]int{empPoint: 604, empGroup: 300, empInsert: 60, empResolve: 30, empCTResolve: 3, empDoomed: 3}

func (g *empGen) nextKind() uint8 {
	if g.pos == len(g.block) {
		g.rng.Shuffle(len(g.block), func(i, j int) { g.block[i], g.block[j] = g.block[j], g.block[i] })
		g.pos = 0
	}
	g.pos++
	return g.block[g.pos-1]
}

func (g *empGen) hotDept() int { return 1 + int(g.zipf.Uint64()) }

func (g *empGen) anyDept() int { return 1 + g.rng.Intn(len(g.depts)) }

// roomyDept is a hot department that can still take an insert.
func (g *empGen) roomyDept() int {
	d := g.hotDept()
	for g.depts[d-1].nextE > empMaxPerDpt {
		d = g.anyDept()
	}
	return d
}

// knownDept is a hot department whose contract is a constant.
func (g *empGen) knownDept() int {
	d := g.hotDept()
	for !g.depts[d-1].known {
		d = g.anyDept()
	}
	return d
}

func (g *empGen) pointRead(o *op, d, e int, class opClass, capture bool) {
	*o = op{kind: opQuery, class: class, capture: capture, npred: 2}
	o.preds[0] = pred{attr: 0, val: konst('d', d)}
	o.preds[1] = pred{attr: 1, val: konst('e', e)}
}

func (g *empGen) next(o *op) {
	if g.hasPending {
		*o = g.pending
		g.hasPending = false
		return
	}
	kind := g.nextKind()
	if (kind == empResolve && len(g.unresolved) == 0) || (kind == empCTResolve && len(g.unknown) == 0) {
		kind = empPoint // nothing left to resolve: read instead
	}
	switch kind {
	case empPoint:
		d := g.hotDept()
		g.pointRead(o, d, 1+g.rng.Intn(g.depts[d-1].nextE-1), clsPointRead, false)
	case empGroup:
		d := g.hotDept()
		dep := &g.depts[d-1]
		ct := dep.ct
		if !dep.known {
			ct = 1 + g.rng.Intn(empContracts)
		}
		*o = op{kind: opQuery, class: clsGroupRead, npred: 2}
		o.preds[0] = pred{attr: 0, val: konst('d', d)}
		o.preds[1] = pred{attr: 3, val: konst('c', ct)}
	case empInsert:
		d := g.roomyDept()
		dep := &g.depts[d-1]
		*o = op{kind: opInsert, class: clsNullInsert, nrows: 1}
		o.rows[0] = empRow(d, dep.nextE, 0, freshNull)
		g.unresolved = append(g.unresolved, empKey{d, dep.nextE})
		dep.nextE++
		if dep.known {
			g.forcedCT++
		}
	case empResolve:
		i := g.rng.Intn(len(g.unresolved))
		k := g.unresolved[i]
		g.unresolved[i] = g.unresolved[len(g.unresolved)-1]
		g.unresolved = g.unresolved[:len(g.unresolved)-1]
		g.pointRead(o, k.d, k.e, clsResolveRead, true)
		g.pending = op{kind: opUpdate, class: clsResolveUpdate, useCapture: true, nrows: 1,
			attr: 2, val: konst('s', 1+g.rng.Intn(empSalaries))}
		g.hasPending = true
		g.resolved++
	case empCTResolve:
		i := g.rng.Intn(len(g.unknown))
		d := g.unknown[i]
		g.unknown[i] = g.unknown[len(g.unknown)-1]
		g.unknown = g.unknown[:len(g.unknown)-1]
		dep := &g.depts[d-1]
		dep.known = true
		g.pointRead(o, d, 1, clsResolveRead, true)
		g.pending = op{kind: opUpdate, class: clsCTResolve, useCapture: true, nrows: 1,
			attr: 3, val: konst('c', dep.ct)}
		g.hasPending = true
		g.ctResolved++
	case empDoomed:
		d := g.knownDept()
		dep := &g.depts[d-1]
		e := dep.nextE
		if e > empMaxPerDpt {
			e = empMaxPerDpt // an existing employee: still a D -> CT clash
		}
		*o = op{kind: opInsert, class: clsDoomed, reject: true, nrows: 1}
		o.rows[0] = empRow(d, e, 1+g.rng.Intn(empSalaries), konst('c', dep.ct%empContracts+1))
		g.doomed++
	}
}

package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// daemonSpec is one daemon workload: its tenant, the seed-determined
// preload and op stream, and the workload's own end-of-run check.
type daemonSpec struct {
	name     string
	tenant   tenantDef
	preload  func(yield func(*row))
	newGen   func() generator
	warmup   int // untimed ops before the window
	traceOps int // how much of the stream the traced run replays
	// settle lists reads the client issues, untimed, between the end of
	// the window and the heap measurement. A write drops the shard's
	// snapshot indexes and the next reads rebuild the ones they need, so
	// without this the live heap would depend on which ops happened to
	// come last.
	settle []op
	// checkState, when set, checks the tenant's final rows against what
	// the generator knows must hold, and returns counts worth reporting.
	checkState func(rows [][]string, gen generator) (map[string]int, error)
}

const preloadBatch = 64 // rows per preload txn

// instance is one booted, preloaded, warmed-up daemon with its client.
type instance struct {
	spec     *daemonSpec
	dir      string
	d        *daemon
	cl       *client
	gen      generator
	issued   int      // ops issued so far, warm-up included
	expected []string // the oracle replay's canonical rows, once computed
}

// drive runs the client's next ops: n of them, or when n is zero until
// sm's deadline, timing each round trip into sm when it is non-nil. A
// capturing read is never the last op: its paired update follows even
// past the end, so the stream stops between requests a real client
// would also stop between.
func (in *instance) drive(n int, sm *sampler) (failed int, err error) {
	var o op
	begin := time.Now()
	for i := 0; ; i++ {
		done := i >= n
		if n == 0 {
			done = !begin.Before(sm.deadline())
		}
		if done && !o.capture {
			return failed, nil
		}
		in.gen.next(&o)
		begin = time.Now()
		ok, err := in.cl.do(&o)
		if sm != nil {
			end := time.Now()
			sm.add(begin, end)
			begin = end
		}
		in.issued++
		if err != nil {
			return failed, fmt.Errorf("op %d (%s): %w", in.issued, classNames[o.class], err)
		}
		if !ok {
			failed++
		}
	}
}

// preloadWire loads a tenant through its own connection in 64-row
// write-sets.
func preloadWire(addr string, d tenantDef, rows func(yield func(*row))) error {
	cl, err := dialClient(addr, d)
	if err != nil {
		return err
	}
	defer cl.close()
	arity := len(d.attrs)
	batch := 0
	var sendErr error
	flush := func() {
		if batch == 0 || sendErr != nil {
			return
		}
		cl.buf = append(cl.buf, ']', '}', '\n')
		reply, err := cl.roundTrip(cl.buf)
		switch {
		case err != nil:
			sendErr = err
		case !isOK(reply):
			sendErr = fmt.Errorf("preload of %s refused: %s", d.name, reply)
		}
		batch = 0
	}
	rows(func(r *row) {
		if batch == 0 {
			cl.buf = append(cl.buf[:0], `{"op":"txn","ops":[`...)
		} else {
			cl.buf = append(cl.buf, ',')
		}
		cl.buf = append(cl.buf, `{"op":"insert","row":`...)
		cl.buf = appendRow(cl.buf, r, arity)
		cl.buf = append(cl.buf, '}')
		if batch++; batch == preloadBatch {
			flush()
		}
	})
	flush()
	return sendErr
}

// setUp boots the daemon, preloads the tenant, connects the client,
// runs the untimed warm-up and collects the garbage all of that made. Its wall time is one setup_s sample.
func setUp(spec *daemonSpec, dir string) (*instance, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	d, err := bootDaemon(spec.tenant, dir)
	if err != nil {
		return nil, err
	}
	in := &instance{spec: spec, dir: dir, d: d}
	fail := func(err error) (*instance, error) {
		in.tearDown()
		return nil, err
	}
	if err := preloadWire(d.addr(), spec.tenant, spec.preload); err != nil {
		return fail(err)
	}
	if in.cl, err = dialClient(d.addr(), spec.tenant); err != nil {
		return fail(err)
	}
	in.gen = spec.newGen()
	failed, err := in.drive(spec.warmup, nil)
	if err == nil && failed > 0 {
		err = fmt.Errorf("%d unexpected replies during warm-up", failed)
	}
	if err != nil {
		return fail(err)
	}
	runtime.GC()
	return in, nil
}

// tearDown closes the client and drains the daemon. The tenant
// directories stay until the run removes its whole work directory at the
// very end: the filesystem under the reference machine is mounted with
// discard, and deleting a set-up's log files just before the next timed
// window would put their TRIMs into it.
func (in *instance) tearDown() error {
	if in.cl != nil {
		in.cl.close()
	}
	return in.d.shutdown()
}

// measure runs the client closed-loop for d and then reads the live
// heap: HeapAlloc after two collections, the store still resident, the
// harness's own latency array subtracted.
func (in *instance) measure(d time.Duration) (*window, error) {
	start := time.Now()
	sm := newSampler(start, d, 1<<20)
	failed, err := in.drive(0, sm)
	elapsed := time.Since(start)
	if err != nil {
		return nil, err
	}
	for i := range in.spec.settle {
		if ok, err := in.cl.do(&in.spec.settle[i]); err != nil || !ok {
			return nil, fmt.Errorf("settling read %d: ok=%v, %v", i, ok, err)
		}
	}
	heap := liveHeapMB(4 * cap(sm.lat))
	w := summarize(sm, elapsed)
	w.heapMB = heap
	w.failed = failed
	return w, nil
}

// liveHeapMB is HeapAlloc after two collections (the second frees what
// the first one's finalizers released), less the bytes the harness
// itself is known to hold.
func liveHeapMB(harnessBytes int) float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return (float64(ms.HeapAlloc) - float64(harnessBytes)) / (1 << 20)
}

// ---- end-of-run verification ----

type wireReply struct {
	OK    bool       `json:"ok"`
	Error string     `json:"error"`
	N     *int       `json:"n"`
	Weak  *bool      `json:"weak"`
	Sure  [][]string `json:"sure"`
	Maybe [][]string `json:"maybe"`
}

func (c *client) ask(line string) (*wireReply, error) {
	reply, err := c.roundTrip([]byte(line + "\n"))
	if err != nil {
		return nil, err
	}
	var r wireReply
	if err := json.Unmarshal(reply, &r); err != nil {
		return nil, fmt.Errorf("bad reply to %s: %w", line, err)
	}
	if !r.OK {
		return nil, fmt.Errorf("%s refused: %s", line, r.Error)
	}
	return &r, nil
}

// dumpTenant reads a tenant's whole instance over the wire. The key
// attribute is a constant in every stored tuple, so `key = key` is
// true of all of them.
func dumpTenant(addr string, d tenantDef) (rows [][]string, n int, weak bool, err error) {
	cl, err := dialClient(addr, d)
	if err != nil {
		return nil, 0, false, err
	}
	defer cl.close()
	r, err := cl.ask(`{"op":"len"}`)
	if err != nil {
		return nil, 0, false, err
	}
	if r.N == nil {
		return nil, 0, false, errors.New("len reply without n")
	}
	n = *r.N
	if r, err = cl.ask(`{"op":"check"}`); err != nil {
		return nil, 0, false, err
	}
	weak = r.Weak != nil && *r.Weak
	if r, err = cl.ask(fmt.Sprintf(`{"op":"query","where":"%s = %s"}`, d.key, d.key)); err != nil {
		return nil, 0, false, err
	}
	return append(r.Sure, r.Maybe...), n, weak, nil
}

// replayOracle rebuilds the tenant's expected final state in an
// unsharded store — the preload, then the ops issued so far, regenerated
// from the seed — and returns its rows in canonical form. The result is
// kept: the recovered crash copy is compared against the same replay as
// the live daemon.
func (in *instance) replayOracle() ([]string, error) {
	if in.expected == nil {
		orc, err := in.runOracle()
		if err != nil {
			return nil, err
		}
		in.expected = canonicalRows(orc.rows())
	}
	return in.expected, nil
}

func (in *instance) runOracle() (*oracleTarget, error) {
	orc, err := newOracle(in.spec.tenant)
	if err != nil {
		return nil, err
	}
	// The preload goes in as write-sets, like the daemon's: a single-row
	// insert of a null-bearing tuple scans every null-bearing row for a
	// duplicate, which at the EMP size would make this replay quadratic.
	arity := orc.l.arity()
	var perr error
	tx := orc.st.Begin()
	in.spec.preload(func(r *row) {
		if perr != nil {
			return
		}
		if perr = tx.InsertRow(rowStrings(r, arity)...); perr == nil && tx.Pending() == preloadBatch {
			perr = tx.Commit()
			tx = orc.st.Begin()
		}
	})
	if perr == nil {
		perr = tx.Commit()
	}
	if perr != nil {
		return nil, fmt.Errorf("oracle preload: %w", perr)
	}
	var o op
	gen := in.spec.newGen()
	for i := 0; i < in.issued; i++ {
		gen.next(&o)
		ok, err := orc.do(&o)
		if err != nil {
			return nil, fmt.Errorf("oracle replay, op %d (%s): %w", i, classNames[o.class], err)
		}
		if !ok {
			return nil, fmt.Errorf("oracle replay, op %d (%s): outcome differs from the stream's expectation", i, classNames[o.class])
		}
	}
	return orc, nil
}

// verify checks the tenant of the daemon at addr against the oracle
// replay: row count, weak satisfiability, and the instance itself
// tuple for tuple modulo mark renaming. It returns the workload's own
// counts from checkState.
func (in *instance) verify(addr string) (map[string]int, error) {
	want, err := in.replayOracle()
	if err != nil {
		return nil, err
	}
	rows, n, weak, err := dumpTenant(addr, in.spec.tenant)
	if err != nil {
		return nil, err
	}
	if n != len(want) {
		return nil, fmt.Errorf("len %d, oracle has %d", n, len(want))
	}
	if !weak {
		return nil, errors.New("check reports weak:false")
	}
	if d := diffRows(canonicalRows(rows), want); d != "" {
		return nil, errors.New(d)
	}
	if in.spec.checkState == nil {
		return nil, nil
	}
	return in.spec.checkState(rows, in.gen)
}

// crashCopy copies the tenant directories as they are on disk, with the
// daemon still running and nothing shut down or checkpointed: what a
// restart after a kill would find.
func crashCopy(src, dst string) error {
	return filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if info.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		in, err := os.Open(path)
		if err != nil {
			return err
		}
		defer in.Close()
		out, err := os.Create(target)
		if err != nil {
			return err
		}
		if _, err := io.Copy(out, in); err != nil {
			out.Close()
			return err
		}
		return out.Close()
	})
}

// recoverCopy boots a second daemon on a crash copy of the tenant's
// directories and times it until the tenant answers len; then the
// recovered state is verified like the live one.
func (in *instance) recoverCopy() (time.Duration, error) {
	copyDir := in.dir + "-crash"
	if err := crashCopy(in.dir, copyDir); err != nil {
		return 0, fmt.Errorf("crash copy: %w", err)
	}
	start := time.Now()
	d, err := bootDaemon(in.spec.tenant, copyDir)
	if err != nil {
		return 0, fmt.Errorf("reopen crash copy: %w", err)
	}
	defer d.shutdown()
	cl, err := dialClient(d.addr(), in.spec.tenant)
	if err != nil {
		return 0, err
	}
	_, err = cl.ask(`{"op":"len"}`)
	cl.close()
	if err != nil {
		return 0, fmt.Errorf("recovered tenant: %w", err)
	}
	took := time.Since(start)
	if _, err := in.verify(d.addr()); err != nil {
		return 0, fmt.Errorf("recovered state: %w", err)
	}
	return took, nil
}

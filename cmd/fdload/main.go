// Command fdload drives the open-loop load simulator
// (internal/loadsim) against an in-process sharded store or a live
// fdserve daemon: requests arrive on a fixed-rate or Poisson clock
// whether or not earlier ones finished, so the latency it reports
// includes the queueing delay a saturated target inflicts — the number
// closed-loop drivers hide.
//
// Usage:
//
//	fdload [-spec FILE | flags] [-target store|serve] [-json FILE]
//
// The workload is a loadsim.Spec, given either as a JSON file via
// -spec (durations in nanoseconds) or assembled from flags; flags set
// explicitly override the file. The schedule is a pure function of
// -seed: reruns with the same spec issue exactly the same op sequence,
// so two runs differ only in measured time.
//
//	fdload -rate 2000 -duration 5s -arrival poisson -mix read=15,insert=10,update=50,delete=14,txn=1 -skew 1.2
//
// Targets:
//
//	-target store   in-process store.Sharded per tenant (-shards),
//	                preloaded with the base keys and
//	                verified against the accepted-state accounting.
//	-target serve   live fdserve daemon at -addr with one
//	                tenant:token per simulated tenant in -auth; each
//	                worker keeps one authenticated connection per
//	                tenant. The tenant's scheme must be the KV shape
//	                (attrs K/A/B, prefixes k/a/b) with domains at
//	                least as large as the run needs; -preload inserts
//	                the base keys over the wire first (default on —
//	                disable when the daemon is already loaded).
//
// -sweep "500,1000,2000" runs the rates in order against a FRESH store
// target per point and reports the saturation knee (-stop-below stops
// early once achieved/offered falls below it); -closed runs the same
// schedule back-to-back on one session instead — the closed-loop
// baseline whose mean hides queueing. -json writes the machine-readable
// result (the full Result, or rate→Result pairs for a sweep).
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"strconv"
	"strings"
	"time"

	"fdnull/internal/loadsim"
	"fdnull/internal/store"
	"fdnull/internal/workload"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("fdload", flag.ContinueOnError)
	fs.SetOutput(stderr)
	specPath := fs.String("spec", "", "workload spec (JSON loadsim.Spec; flags override)")
	target := fs.String("target", "store", "load target: store or serve")
	jsonPath := fs.String("json", "", "write the machine-readable result to this file")

	seed := fs.Int64("seed", 1, "schedule RNG seed (same seed, same ops)")
	rate := fs.Float64("rate", 1000, "offered arrival rate, requests/s")
	duration := fs.Duration("duration", 5*time.Second, "measured window")
	warmup := fs.Duration("warmup", 500*time.Millisecond, "unmeasured warmup before the window")
	workers := fs.Int("workers", 8, "executor pool size (serve: connections per tenant)")
	arrival := fs.String("arrival", "poisson", "arrival process: fixed or poisson")
	mix := fs.String("mix", "", "op mix, e.g. read=70,insert=20,update=10 (ops: read insert update delete txn discover)")
	keys := fs.Int("keys", 512, "base key population per tenant")
	skew := fs.Float64("skew", 0, "key-popularity Zipf s (0 uniform, else > 1)")
	tenants := fs.Int("tenants", 1, "tenant count")
	tenantSkew := fs.Float64("tenant-skew", 0, "tenant-selection Zipf s (0 uniform, else > 1)")
	txnSize := fs.Int("txn", 4, "write-set size of txn ops")
	maxLHS := fs.Int("discover-maxlhs", 1, "determinant bound for discover ops")

	shards := fs.Int("shards", 8, "store target: shards per tenant")
	addr := fs.String("addr", "127.0.0.1:7070", "serve target: daemon address")
	auth := fs.String("auth", "", "serve target: tenant:token[,tenant:token...], one per tenant")
	preload := fs.Bool("preload", true, "serve target: insert the base keys over the wire first")

	sweep := fs.String("sweep", "", "comma-separated offered rates; fresh store target per point")
	stopBelow := fs.Float64("stop-below", 0.85, "sweep: stop once achieved/offered falls below this")
	closed := fs.Bool("closed", false, "closed-loop baseline: back-to-back on one session")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	sp := loadsim.Spec{
		Seed: *seed, Rate: *rate, Duration: *duration, Warmup: *warmup,
		Workers: *workers, BaseKeys: *keys, KeySkew: *skew,
		Tenants: *tenants, TenantSkew: *tenantSkew, TxnSize: *txnSize,
		DiscoverMaxLHS: *maxLHS,
	}
	if *specPath != "" {
		sp = loadsim.Spec{}
		data, err := os.ReadFile(*specPath)
		if err != nil {
			fmt.Fprintf(stderr, "fdload: %v\n", err)
			return 2
		}
		dec := json.NewDecoder(strings.NewReader(string(data)))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&sp); err != nil {
			fmt.Fprintf(stderr, "fdload: -spec %s: %v\n", *specPath, err)
			return 2
		}
	}
	var flagErr error
	fs.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "seed":
			sp.Seed = *seed
		case "rate":
			sp.Rate = *rate
		case "duration":
			sp.Duration = *duration
		case "warmup":
			sp.Warmup = *warmup
		case "workers":
			sp.Workers = *workers
		case "keys":
			sp.BaseKeys = *keys
		case "skew":
			sp.KeySkew = *skew
		case "tenants":
			sp.Tenants = *tenants
		case "tenant-skew":
			sp.TenantSkew = *tenantSkew
		case "txn":
			sp.TxnSize = *txnSize
		case "discover-maxlhs":
			sp.DiscoverMaxLHS = *maxLHS
		}
	})
	if *arrival != "" && (*specPath == "" || flagSet(fs, "arrival")) {
		a, err := loadsim.ParseArrival(*arrival)
		if err != nil {
			flagErr = err
		}
		sp.Arrival = a
	}
	if *mix != "" {
		m, err := loadsim.ParseMix(*mix)
		if err != nil {
			flagErr = err
		}
		sp.Mix = m
	}
	if flagErr != nil {
		fmt.Fprintf(stderr, "fdload: %v\n", flagErr)
		return 2
	}
	if err := sp.Validate(); err != nil {
		fmt.Fprintf(stderr, "fdload: %v\n", err)
		return 2
	}

	var rates []float64
	if *sweep != "" {
		if *closed {
			fmt.Fprintln(stderr, "fdload: -sweep and -closed are mutually exclusive")
			return 2
		}
		if *target != "store" {
			fmt.Fprintln(stderr, "fdload: -sweep needs -target store (each point needs a fresh target)")
			return 2
		}
		for _, s := range strings.Split(*sweep, ",") {
			r, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
			if err != nil || r <= 0 {
				fmt.Fprintf(stderr, "fdload: bad sweep rate %q\n", s)
				return 2
			}
			rates = append(rates, r)
		}
	}

	switch *target {
	case "store":
		fresh := func(sp loadsim.Spec) (loadsim.Target, error) {
			return storeTarget(sp, *shards)
		}
		if len(rates) > 0 {
			points, err := loadsim.Sweep(sp, rates, *stopBelow, fresh)
			if err != nil {
				fmt.Fprintf(stderr, "fdload: %v\n", err)
				return 1
			}
			writeSweep(stdout, points)
			if *jsonPath != "" {
				if err := writeSweepJSON(*jsonPath, points); err != nil {
					fmt.Fprintf(stderr, "fdload: %v\n", err)
					return 1
				}
			}
			return 0
		}
		tgt, err := fresh(sp)
		if err != nil {
			fmt.Fprintf(stderr, "fdload: %v\n", err)
			return 1
		}
		return finish(stdout, stderr, runOne(sp, tgt, *closed), *jsonPath)
	case "serve":
		auths, err := parseAuths(*auth, sp.Tenants)
		if err != nil {
			fmt.Fprintf(stderr, "fdload: %v\n", err)
			return 2
		}
		bound, err := loadsim.KeyBound(sp)
		if err != nil {
			fmt.Fprintf(stderr, "fdload: %v\n", err)
			return 1
		}
		_, _, row := workload.KV(bound)
		if *preload {
			if err := preloadWire(*addr, auths, row, sp.BaseKeys); err != nil {
				fmt.Fprintf(stderr, "fdload: preload: %v\n", err)
				return 1
			}
		}
		tgt := loadsim.NewWireTarget(*addr, auths, row, sp.DiscoverMaxLHS)
		return finish(stdout, stderr, runOne(sp, tgt, *closed), *jsonPath)
	default:
		fmt.Fprintf(stderr, "fdload: unknown target %q (want store or serve)\n", *target)
		return 2
	}
}

func flagSet(fs *flag.FlagSet, name string) bool {
	set := false
	fs.Visit(func(f *flag.Flag) {
		if f.Name == name {
			set = true
		}
	})
	return set
}

// storeTarget builds one preloaded sharded store per tenant over the KV
// workload.
func storeTarget(sp loadsim.Spec, shards int) (loadsim.Target, error) {
	bound, err := loadsim.KeyBound(sp)
	if err != nil {
		return nil, err
	}
	s, fds, row := workload.KV(bound)
	stores := make([]*store.Sharded, sp.Tenants)
	for tn := range stores {
		sh, err := store.NewSharded(s, fds, store.ShardedOptions{Shards: shards, Key: fds[0].X})
		if err != nil {
			return nil, err
		}
		for k := 0; k < sp.BaseKeys; k++ {
			if err := sh.InsertRow(row(k)...); err != nil {
				return nil, fmt.Errorf("preload key %d: %v", k, err)
			}
		}
		stores[tn] = sh
	}
	return loadsim.NewStoreTarget(stores, row, sp.DiscoverMaxLHS), nil
}

type runOutcome struct {
	res *loadsim.Result
	err error
}

func runOne(sp loadsim.Spec, tgt loadsim.Target, closed bool) runOutcome {
	var (
		res *loadsim.Result
		err error
	)
	if closed {
		res, err = loadsim.RunClosed(sp, tgt)
	} else {
		res, err = loadsim.Run(sp, tgt)
	}
	if cerr := tgt.Close(); err == nil {
		err = cerr
	}
	return runOutcome{res, err}
}

func finish(stdout, stderr io.Writer, out runOutcome, jsonPath string) int {
	if out.err != nil {
		fmt.Fprintf(stderr, "fdload: %v\n", out.err)
		return 1
	}
	out.res.WriteReport(stdout)
	if jsonPath != "" {
		data, err := json.MarshalIndent(out.res, "", "  ")
		if err == nil {
			err = os.WriteFile(jsonPath, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintf(stderr, "fdload: -json: %v\n", err)
			return 1
		}
	}
	if out.res.Errors > 0 {
		fmt.Fprintf(stderr, "fdload: %d requests failed unclassified, first: %s\n",
			out.res.Errors, out.res.FirstError)
		return 1
	}
	return 0
}

func writeSweep(w io.Writer, points []loadsim.SweepPoint) {
	fmt.Fprintf(w, "%10s %12s %6s %12s %12s %12s\n",
		"offered/s", "achieved/s", "util", "p50", "p99", "p999")
	for _, p := range points {
		r := p.Result
		fmt.Fprintf(w, "%10.0f %12.0f %5.0f%% %12s %12s %12s\n",
			r.OfferedRate, r.AchievedRate, 100*r.AchievedRate/r.OfferedRate,
			time.Duration(r.Hist.Quantile(0.50)), time.Duration(r.Hist.Quantile(0.99)),
			time.Duration(r.Hist.Quantile(0.999)))
	}
	fmt.Fprintf(w, "saturation: %.0f requests/s\n", loadsim.Saturation(points))
}

func writeSweepJSON(path string, points []loadsim.SweepPoint) error {
	type pointJSON struct {
		Rate   float64         `json:"rate"`
		Result *loadsim.Result `json:"result"`
	}
	out := make([]pointJSON, len(points))
	for i, p := range points {
		out[i] = pointJSON{p.Rate, p.Result}
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func parseAuths(s string, tenants int) ([]loadsim.WireAuth, error) {
	if s == "" {
		return nil, fmt.Errorf("-target serve needs -auth tenant:token[,tenant:token...]")
	}
	parts := strings.Split(s, ",")
	if len(parts) != tenants {
		return nil, fmt.Errorf("-auth has %d entries, spec has %d tenants", len(parts), tenants)
	}
	auths := make([]loadsim.WireAuth, len(parts))
	for i, p := range parts {
		tok := strings.SplitN(strings.TrimSpace(p), ":", 2)
		if len(tok) != 2 || tok[0] == "" || tok[1] == "" {
			return nil, fmt.Errorf("bad -auth entry %q (want tenant:token)", p)
		}
		auths[i] = loadsim.WireAuth{Tenant: tok[0], Token: tok[1]}
	}
	return auths, nil
}

// preloadWire inserts the base keys for every tenant over one throwaway
// connection per tenant.
func preloadWire(addr string, auths []loadsim.WireAuth, row func(int) []string, baseKeys int) error {
	for _, a := range auths {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			return err
		}
		sc := bufio.NewScanner(conn)
		sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
		call := func(req map[string]any) error {
			data, err := json.Marshal(req)
			if err != nil {
				return err
			}
			if _, err := conn.Write(append(data, '\n')); err != nil {
				return err
			}
			if !sc.Scan() {
				return fmt.Errorf("connection closed: %v", sc.Err())
			}
			var resp struct {
				OK    bool   `json:"ok"`
				Error string `json:"error"`
			}
			if err := json.Unmarshal(sc.Bytes(), &resp); err != nil {
				return err
			}
			if !resp.OK {
				return fmt.Errorf("%s", resp.Error)
			}
			return nil
		}
		err = call(map[string]any{"op": "auth", "tenant": a.Tenant, "token": a.Token})
		for k := 0; err == nil && k < baseKeys; k++ {
			if err = call(map[string]any{"op": "insert", "row": row(k)}); err != nil {
				err = fmt.Errorf("tenant %s key %d: %v", a.Tenant, k, err)
			}
		}
		conn.Close() // errcheck:ok one-shot preload connection
		if err != nil {
			return err
		}
	}
	return nil
}

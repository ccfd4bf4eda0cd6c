// Package loadsim is the open-loop workload generator and measurement
// harness: the load side of the production story the closed-loop fdbench
// experiments cannot tell.
//
// # Open loop
//
// A closed-loop driver issues the next request only when the previous
// one returns, so a slow server conveniently slows its own load and the
// measured latency hides every queueing effect — the "coordinated
// omission" trap. This package drives the other way: a clocked injector
// emits requests on a configurable arrival process (fixed-rate or
// Poisson) regardless of completions, workers drain the arrival queue,
// and each request's latency is measured from its SCHEDULED arrival
// time, so time spent waiting behind a saturated target counts in full.
// Offered rate is a property of the schedule; achieved rate is what the
// target actually absorbed — their divergence is the saturation signal
// the rate sweep walks toward.
//
// # Determinism
//
// The whole schedule — arrival instants, op kinds, keys, tenant picks,
// txn compositions — is precomputed from Spec.Seed before the clock
// starts. Two runs of the same spec issue exactly the same requests in
// the same order at the same relative instants; only outcomes (latency,
// conflicts, stale hits) depend on the target. The per-kind issued
// counts are therefore exactly reproducible, which cmd/fdload verifies
// with its -rerun flag.
//
// # Workload shape
//
// Requests run against the KV workload (internal/workload.KV): keys are
// drawn uniformly or Zipf-skewed over a preloaded base population for
// reads and updates, inserts and txn batches take globally fresh keys
// (never colliding, so every accepted insert is deterministic state),
// deletes consume previously inserted keys from a runtime pool, and
// updates write the key's canonical cell value — a semantic no-op that
// still pays the full validation path — so the final state is exactly
// base + inserted − deleted and an unsharded oracle can replay it.
package loadsim

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"time"
)

// OpKind enumerates the request types in an op mix.
type OpKind int

const (
	// OpRead is a three-valued selection K = <key>.
	OpRead OpKind = iota
	// OpInsert inserts one fresh-key row.
	OpInsert
	// OpUpdate overwrites one cell of a base row with its canonical
	// value (a semantic no-op exercising the full commit path).
	OpUpdate
	// OpDelete removes a row previously inserted by this run (drawn
	// from the runtime pool of accepted inserts; reported NoTarget when
	// the pool is empty).
	OpDelete
	// OpTxn commits a multi-op write-set of TxnSize fresh-key inserts.
	OpTxn
	// OpDiscover runs bounded FD discovery over a current snapshot.
	OpDiscover

	numOpKinds int = iota
)

var opNames = [...]string{"read", "insert", "update", "delete", "txn", "discover"}

func (k OpKind) String() string {
	if int(k) < len(opNames) {
		return opNames[k]
	}
	return fmt.Sprintf("OpKind(%d)", int(k))
}

// ParseOpKind parses an op-mix name.
func ParseOpKind(s string) (OpKind, error) {
	for i, n := range opNames {
		if n == s {
			return OpKind(i), nil
		}
	}
	return 0, fmt.Errorf("loadsim: unknown op %q (want one of %s)", s, strings.Join(opNames[:], ", "))
}

// Mix is an op mix by relative weight; kinds with weight 0 are absent.
type Mix [numOpKinds]int

// ParseMix parses "read=60,insert=25,update=10,txn=5".
func ParseMix(s string) (Mix, error) {
	var m Mix
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, weight, ok := strings.Cut(part, "=")
		if !ok {
			return m, fmt.Errorf("loadsim: bad mix entry %q (want op=weight)", part)
		}
		k, err := ParseOpKind(strings.TrimSpace(name))
		if err != nil {
			return m, err
		}
		var w int
		if _, err := fmt.Sscanf(strings.TrimSpace(weight), "%d", &w); err != nil || w < 0 {
			return m, fmt.Errorf("loadsim: bad weight in %q", part)
		}
		m[k] = w
	}
	return m, nil
}

func (m Mix) total() int {
	t := 0
	for _, w := range m {
		t += w
	}
	return t
}

func (m Mix) String() string {
	var parts []string
	for k, w := range m {
		if w > 0 {
			parts = append(parts, fmt.Sprintf("%s=%d", OpKind(k), w))
		}
	}
	return strings.Join(parts, ",")
}

// Arrival selects the inter-arrival process.
type Arrival int

const (
	// ArrivalFixed spaces requests exactly 1/Rate apart.
	ArrivalFixed Arrival = iota
	// ArrivalPoisson draws exponential inter-arrival gaps with mean
	// 1/Rate — the memoryless process open systems actually see.
	ArrivalPoisson
)

func (a Arrival) String() string {
	if a == ArrivalPoisson {
		return "poisson"
	}
	return "fixed"
}

// ParseArrival parses "fixed" or "poisson".
func ParseArrival(s string) (Arrival, error) {
	switch s {
	case "fixed":
		return ArrivalFixed, nil
	case "poisson":
		return ArrivalPoisson, nil
	}
	return 0, fmt.Errorf("loadsim: unknown arrival process %q (want fixed or poisson)", s)
}

// Spec is a declarative open-loop workload description. The zero values
// of optional fields are normalized by Validate.
type Spec struct {
	// Seed fixes the schedule RNG; equal seeds mean equal schedules.
	Seed int64 `json:"seed"`
	// Rate is the offered arrival rate in requests per second.
	Rate float64 `json:"rate"`
	// Duration is the measured window after Warmup.
	Duration time.Duration `json:"duration"`
	// Warmup requests execute but do not count (0 = none).
	Warmup time.Duration `json:"warmup,omitempty"`
	// Workers is the executor pool draining the arrival queue
	// (default 8). For the wire target this is also the connection
	// count.
	Workers int `json:"workers,omitempty"`
	// Arrival selects the arrival process (default fixed).
	Arrival Arrival `json:"arrival,omitempty"`
	// Mix is the op mix (default read=70,insert=20,update=10).
	Mix Mix `json:"mix,omitempty"`
	// BaseKeys is the preloaded key-population size reads and updates
	// draw from (default 512). Inserts start above it.
	BaseKeys int `json:"base_keys,omitempty"`
	// KeySkew is the Zipf s parameter for key popularity over the base
	// population; 0 means uniform, otherwise it must exceed 1 (the
	// stdlib Zipf domain).
	KeySkew float64 `json:"key_skew,omitempty"`
	// Tenants is the number of tenants requests spread over
	// (default 1); TenantSkew is the Zipf s parameter for tenant
	// selection (0 = uniform, else > 1).
	Tenants    int     `json:"tenants,omitempty"`
	TenantSkew float64 `json:"tenant_skew,omitempty"`
	// TxnSize is the write-set size of OpTxn requests (default 4).
	TxnSize int `json:"txn_size,omitempty"`
	// DiscoverMaxLHS bounds OpDiscover's determinant search
	// (default 1).
	DiscoverMaxLHS int `json:"discover_max_lhs,omitempty"`
}

// Validate normalizes defaults and rejects malformed specs.
func (sp *Spec) Validate() error {
	if sp.Rate <= 0 {
		return fmt.Errorf("loadsim: rate %v must be positive", sp.Rate)
	}
	if sp.Duration <= 0 {
		return fmt.Errorf("loadsim: duration %v must be positive", sp.Duration)
	}
	if sp.Warmup < 0 {
		return fmt.Errorf("loadsim: negative warmup")
	}
	if sp.Workers == 0 {
		sp.Workers = 8
	}
	if sp.Workers < 1 {
		return fmt.Errorf("loadsim: workers %d must be positive", sp.Workers)
	}
	if sp.Mix.total() == 0 {
		sp.Mix = Mix{OpRead: 70, OpInsert: 20, OpUpdate: 10}
	}
	if sp.BaseKeys == 0 {
		sp.BaseKeys = 512
	}
	if sp.BaseKeys < 1 {
		return fmt.Errorf("loadsim: base keys %d must be positive", sp.BaseKeys)
	}
	if sp.KeySkew != 0 && sp.KeySkew <= 1 {
		return fmt.Errorf("loadsim: key skew %v must be 0 (uniform) or > 1 (Zipf s)", sp.KeySkew)
	}
	if sp.Tenants == 0 {
		sp.Tenants = 1
	}
	if sp.Tenants < 1 {
		return fmt.Errorf("loadsim: tenants %d must be positive", sp.Tenants)
	}
	if sp.TenantSkew != 0 && sp.TenantSkew <= 1 {
		return fmt.Errorf("loadsim: tenant skew %v must be 0 (uniform) or > 1 (Zipf s)", sp.TenantSkew)
	}
	if sp.TxnSize == 0 {
		sp.TxnSize = 4
	}
	if sp.TxnSize < 1 {
		return fmt.Errorf("loadsim: txn size %d must be positive", sp.TxnSize)
	}
	if sp.DiscoverMaxLHS == 0 {
		sp.DiscoverMaxLHS = 1
	}
	if sp.DiscoverMaxLHS < 1 {
		return fmt.Errorf("loadsim: discover max LHS %d must be positive", sp.DiscoverMaxLHS)
	}
	return nil
}

// request is one scheduled arrival.
type request struct {
	at     time.Duration // offset from run start
	kind   OpKind
	tenant int
	// key is the base-population key for reads/updates, or the first
	// fresh key for inserts/txns (txns take keys key..key+txnSize-1).
	// Deletes resolve their key from the pool at execution time.
	key     int
	txnSize int // OpTxn only
}

// picker draws indices 0..n-1, uniformly or Zipf-skewed. Zipf rank 0 is
// the hottest index; the stdlib generator returns ranks directly, so
// popularity decays with the index, which is exactly the "a few hot
// tenants / keys" shape wanted here.
type picker struct {
	n    int
	zipf *rand.Zipf
	rng  *rand.Rand
}

func newPicker(rng *rand.Rand, n int, skew float64) *picker {
	p := &picker{n: n, rng: rng}
	if skew > 1 && n > 1 {
		p.zipf = rand.NewZipf(rng, skew, 1, uint64(n-1))
	}
	return p
}

func (p *picker) pick() int {
	if p.n <= 1 {
		return 0
	}
	if p.zipf != nil {
		return int(p.zipf.Uint64())
	}
	return p.rng.Intn(p.n)
}

// schedule precomputes the full request sequence for a spec. Fresh keys
// (inserts and txn batches) are assigned per tenant, ascending from the
// tenant's base population, so the accepted-state oracle is the base
// plus exactly the accepted fresh keys minus the deleted ones.
func schedule(sp Spec) []request {
	rng := rand.New(rand.NewSource(sp.Seed))
	keys := newPicker(rng, sp.BaseKeys, sp.KeySkew)
	tenants := newPicker(rng, sp.Tenants, sp.TenantSkew)
	total := sp.Mix.total()
	horizon := sp.Warmup + sp.Duration
	nextFresh := make([]int, sp.Tenants)
	for i := range nextFresh {
		nextFresh[i] = sp.BaseKeys
	}
	var reqs []request
	var at time.Duration
	for i := 0; ; i++ {
		if sp.Arrival == ArrivalPoisson {
			at += time.Duration(rng.ExpFloat64() / sp.Rate * float64(time.Second))
		} else {
			at = time.Duration(float64(i) / sp.Rate * float64(time.Second))
		}
		if at >= horizon {
			return reqs
		}
		r := request{at: at, tenant: tenants.pick()}
		w := rng.Intn(total)
		for k, kw := range sp.Mix {
			if w < kw {
				r.kind = OpKind(k)
				break
			}
			w -= kw
		}
		switch r.kind {
		case OpRead, OpUpdate:
			r.key = keys.pick()
		case OpInsert:
			r.key = nextFresh[r.tenant]
			nextFresh[r.tenant]++
		case OpTxn:
			r.key = nextFresh[r.tenant]
			r.txnSize = sp.TxnSize
			nextFresh[r.tenant] += sp.TxnSize
		}
		reqs = append(reqs, r)
	}
}

// KeyBound returns the key-domain size a target must provide for sp:
// the base population plus every fresh key any tenant's schedule
// assigns (targets share one scheme, so the max across tenants rules).
func KeyBound(sp Spec) (int, error) {
	if err := sp.Validate(); err != nil {
		return 0, err
	}
	bound := sp.BaseKeys
	for _, r := range schedule(sp) {
		var high int
		switch r.kind {
		case OpInsert:
			high = r.key + 1
		case OpTxn:
			high = r.key + r.txnSize
		default:
			continue
		}
		if high > bound {
			bound = high
		}
	}
	return bound, nil
}

// IssuedCounts tallies a spec's schedule per op kind without running it
// — the reproducibility contract surface (equal seeds, equal counts).
func IssuedCounts(sp Spec) (map[string]int, error) {
	if err := sp.Validate(); err != nil {
		return nil, err
	}
	out := make(map[string]int)
	for _, r := range schedule(sp) {
		out[r.kind.String()]++
	}
	return out, nil
}

// FormatCounts renders per-kind counts in a stable order.
func FormatCounts(counts map[string]int) string {
	names := make([]string, 0, len(counts))
	for n := range counts {
		names = append(names, n)
	}
	sort.Strings(names)
	parts := make([]string, 0, len(names))
	for _, n := range names {
		parts = append(parts, fmt.Sprintf("%s=%d", n, counts[n]))
	}
	return strings.Join(parts, " ")
}

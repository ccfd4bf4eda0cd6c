// Command bench is the repository's benchmark: four closed-loop
// workloads over the fdserve daemon core and the analysis library, five
// end-to-end metrics, and a per-layer ladder measured from outside the
// program. README.md in this directory says who the users are and why
// each workload and metric is what it is.
//
//	go run ./bench -workload kv-read -seed 1            end-to-end run
//	go run ./bench -workload kv-read -seed 1 -trace 1   traced ladder
//	go run ./bench -workload kv-read -repeat 5          spread over five runs
//	go run ./bench -workload kv-read -hist              latency histogram
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	scale    float64
	repeat   int
	hist     bool
	traceOut string
	workRoot string // where durable tenants live for the length of a run
}

// workDir is this run's own directory under the work root: named by pid
// so concurrent runs do not collide, removed when the run ends.
func (o options) workDir() string {
	return filepath.Join(o.workRoot, fmt.Sprintf("run-%d", os.Getpid()))
}

// removeWork deletes this run's directory, and the work root too if no
// other run is using it.
func (o options) removeWork() {
	os.RemoveAll(o.workDir())
	os.Remove(o.workRoot)
}

func main() {
	// One scheduler thread for the daemon, its client and the collector.
	// Every workload is one closed loop, so a second thread only ever ran
	// the collector's background workers and the hand-over between client
	// and handler; whether the shared host had a second core free at that
	// moment then showed in every timing (README.md, "How steady it is").
	runtime.GOMAXPROCS(1)

	var o options
	flag.StringVar(&o.workload, "workload", "", "kv-read | kv-durable | emp-null-mixed | batch-analyze")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed: the same seed gives the same inputs")
	flag.Float64Var(&o.seconds, "seconds", 30, "length of the timed window")
	flag.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics, tracing off; 1: the traced ladder's per-layer metrics")
	flag.Float64Var(&o.scale, "scale", 1, "multiplies preload sizes and warm-up lengths (the smoke test uses 0.01)")
	flag.IntVar(&o.repeat, "repeat", 0, "run the workload this many times (seeds seed, seed+1, ...) and print each metric's spread")
	flag.BoolVar(&o.hist, "hist", false, "print the latency histogram with p50 and p99 marked")
	flag.StringVar(&o.traceOut, "trace-out", "", "with -trace 1: write the spans to this file as JSON lines")
	flag.StringVar(&o.workRoot, "work", ".bench_work", "directory for the durable tenants' files; created, and removed again if empty")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "bench: unexpected argument %q\n", flag.Arg(0))
		os.Exit(2)
	}
	known := false
	for _, w := range workloadNames {
		known = known || w == o.workload
	}
	if !known {
		fmt.Fprintf(os.Stderr, "bench: -workload must be one of %v\n", workloadNames)
		os.Exit(2)
	}
	if o.seconds <= 0 || o.scale <= 0 {
		fmt.Fprintln(os.Stderr, "bench: -seconds and -scale must be positive")
		os.Exit(2)
	}
	var err error
	switch {
	case o.repeat > 0:
		err = repeatRuns(o)
	default:
		var res *result
		if res, err = runOnce(o); err == nil {
			err = res.print(os.Stdout)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// result is one run's outcome in the shape the driver reads.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`

	notes  []string       // human-readable lines printed above the metrics
	counts map[string]int // the workload's own end-of-run counts
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// print writes the notes, every metric by name with its unit, and as the
// last line the JSON object the driver parses.
func (r *result) print(w *os.File) error {
	for _, n := range r.notes {
		fmt.Fprintln(w, n)
	}
	names := make([]string, 0, len(r.Metrics))
	for name := range r.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(w, "%-36s %14.4f %s\n", name, r.Metrics[name].Value, r.Metrics[name].Unit)
	}
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

func (r *result) set(defs []metricDef, name string, v float64) {
	for _, d := range defs {
		if d.Name == name {
			r.Metrics[name] = metricValue{Value: v, Unit: d.Unit}
			return
		}
	}
	panic("bench: metric " + name + " is not declared in metrics.go")
}

const setUps = 3 // set-ups per run; setup_s is their median

func runOnce(o options) (*result, error) {
	if o.trace != 0 {
		return runLadder(o)
	}
	if o.workload == "batch-analyze" {
		return runBatch(o)
	}
	return runDaemon(o)
}

// endToEnd fills the five end-to-end metrics from a window and the
// set-up times.
func endToEnd(w *window, setups []float64, hist bool) *result {
	r := &result{Correct: true, Attempted: len(w.lat), Failed: w.failed, Metrics: map[string]metricValue{}}
	r.set(endToEndMetrics, "setup_s", medianF(setups))
	r.set(endToEndMetrics, "ops_per_s", w.opsPerS)
	r.set(endToEndMetrics, "op_p50_us", w.p50us)
	r.set(endToEndMetrics, "op_p99_us", w.p99us)
	r.set(endToEndMetrics, "live_heap_mb", w.heapMB)
	r.notes = append(r.notes, fmt.Sprintf("timed window %.2f s, %d ops in %d segments (%d samples beyond each segment's p99); set-ups %.3v s",
		w.elapsed.Seconds(), len(w.lat), w.segments, len(w.lat)/w.segments/100, setups))
	r.notes = append(r.notes, fmt.Sprintf("whole window: %.1f ops/s, p50 %.1f us, p99 %.1f us",
		float64(len(w.lat))/w.elapsed.Seconds(), float64(percentile(w.lat, 50))/1e3, float64(percentile(w.lat, 99))/1e3))
	if hist {
		printHistogram(os.Stdout, w.lat)
	}
	return r
}

func runDaemon(o options) (*result, error) {
	spec, err := daemonWorkload(o.workload, o.seed, o.scale)
	if err != nil {
		return nil, err
	}
	defer o.removeWork()
	var in *instance
	var setups []float64
	for i := 0; i < setUps; i++ {
		if in != nil {
			if err := in.tearDown(); err != nil {
				return nil, fmt.Errorf("tear-down between set-ups: %w", err)
			}
		}
		start := time.Now()
		if in, err = setUp(spec, filepath.Join(o.workDir(), fmt.Sprintf("setup-%d", i+1))); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer in.tearDown()

	w, err := in.measure(time.Duration(o.seconds * float64(time.Second)))
	if err != nil {
		return nil, err
	}
	if w.failed > 0 {
		return nil, fmt.Errorf("%d of %d ops drew an unexpected reply", w.failed, len(w.lat))
	}
	counts, err := in.verify(in.d.addr())
	if err != nil {
		return nil, fmt.Errorf("final state: %w", err)
	}
	res := endToEnd(w, setups, o.hist)
	if spec.tenant.durable {
		took, err := in.recoverCopy()
		if err != nil {
			return nil, err
		}
		res.notes = append(res.notes, fmt.Sprintf("crash copy reopened and verified; recovery took %.3f s", took.Seconds()))
	}
	res.notes = append(res.notes, "final state equals the oracle replay, tuple for tuple modulo mark renaming")
	res.counts = counts
	keys := make([]string, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		res.notes = append(res.notes, fmt.Sprintf("%s: %d", k, counts[k]))
	}
	return res, nil
}

func runBatch(o options) (*result, error) {
	var in *batchInstance
	var setups []float64
	for i := 0; i < setUps; i++ {
		start := time.Now()
		var err error
		if in, err = setUpBatch(o.seed, o.scale); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	w, err := in.measure(time.Duration(o.seconds * float64(time.Second)))
	if err != nil {
		return nil, err
	}
	res := endToEnd(w, setups, o.hist)
	res.notes = append(res.notes, "every pass reproduced the oracle engines' digest of its file")
	return res, nil
}

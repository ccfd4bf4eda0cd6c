package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

func smokeOptions(t *testing.T, workload string) options {
	return options{workload: workload, seed: 42, seconds: 0.4, scale: 0.01, workRoot: filepath.Join(t.TempDir(), "work")}
}

// TestSmokeEndToEnd runs every workload at a hundredth of its size with
// all its correctness checks — reply checks, oracle replay, state
// comparison, crash-copy recovery, reference digests — so the tier-1
// suite exercises the benchmark itself.
func TestSmokeEndToEnd(t *testing.T) {
	for _, w := range workloadNames {
		t.Run(w, func(t *testing.T) {
			res, err := runOnce(smokeOptions(t, w))
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(endToEndMetrics) {
				t.Fatalf("%d metrics, want the %d end-to-end ones", len(res.Metrics), len(endToEndMetrics))
			}
			for _, d := range endToEndMetrics {
				m, ok := res.Metrics[d.Name]
				if !ok || m.Unit != d.Unit || !(m.Value > 0) {
					t.Errorf("%s = %+v (present %v); want a positive value in %s", d.Name, m, ok, d.Unit)
				}
			}
		})
	}
}

// TestSmokeEmpExercisesThePaper checks that even the small run sees the
// NS-rule, mark resolution and rejection at work; runOnce has already
// compared the resulting state with the oracle replay.
func TestSmokeEmpExercisesThePaper(t *testing.T) {
	o := smokeOptions(t, "emp-null-mixed")
	o.seconds = 1.5
	res, err := runOnce(o)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"ns_forced_ct_inserts", "ns_constant_ct_rows", "salary_marks_resolved", "doomed_inserts_rejected"} {
		if res.counts[name] == 0 {
			t.Errorf("%s is zero; counts are %v", name, res.counts)
		}
	}
}

func TestSmokeLadder(t *testing.T) {
	o := smokeOptions(t, "kv-durable")
	o.trace = 1
	o.traceOut = filepath.Join(t.TempDir(), "spans.jsonl")
	res, err := runOnce(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Metrics) != len(perLayerMetrics) {
		t.Fatalf("%d metrics, want the %d per-layer ones", len(res.Metrics), len(perLayerMetrics))
	}
	for _, name := range []string{"serve.query_p50_us", "store.txn_p50_us", "iox.sync_p50_us", "chase.run_ms", "store.recover_ms", "store.log_records_replayed"} {
		if !(res.Metrics[name].Value > 0) {
			t.Errorf("%s = %v, want a positive measurement", name, res.Metrics[name].Value)
		}
	}
	if _, err := json.Marshal(res); err != nil {
		t.Errorf("the result line cannot be rendered: %v", err)
	}
	if info, err := os.Stat(o.traceOut); err != nil || info.Size() == 0 {
		t.Fatalf("no spans written to %s: %v", o.traceOut, err)
	}
	if _, err := os.Stat(o.workRoot); !os.IsNotExist(err) {
		t.Fatalf("the run left %s behind", o.workRoot)
	}
}

// TestBenchmarkJSONMatchesTheTables keeps BENCHMARK.json, which the
// driver reads, equal to the metric and workload tables the program
// prints from.
func TestBenchmarkJSONMatchesTheTables(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		Command    []string                     `json:"command"`
		Paths      []string                     `json:"paths"`
		RunSeconds int                          `json:"run_seconds"`
		Workloads  []struct{ Name, Why string } `json:"workloads"`
		EndToEnd   []metricDef                  `json:"end_to_end"`
		PerLayer   []metricDef                  `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatal(err)
	}
	var declared []string
	for _, w := range workloadNames {
		if w != undeclaredWorkload {
			declared = append(declared, w)
		}
	}
	if len(file.Workloads) != len(declared) {
		t.Fatalf("%d workloads declared, the program has %d to declare", len(file.Workloads), len(declared))
	}
	for i, w := range file.Workloads {
		if w.Name != declared[i] || w.Why == "" {
			t.Errorf("workload %d is %q (why %q), want %q with a reason", i, w.Name, w.Why, declared[i])
		}
	}
	same := func(what string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics declared, the program has %d", what, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s metric %d: file says %+v, program says %+v", what, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", file.EndToEnd, endToEndMetrics)
	same("per_layer", file.PerLayer, perLayerMetrics)
	if file.RunSeconds < 10 || len(file.Paths) != 1 || file.Paths[0] != "bench" {
		t.Errorf("run_seconds %d, paths %v", file.RunSeconds, file.Paths)
	}
}

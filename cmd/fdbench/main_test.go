package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestListFlag(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-list"}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d", code)
	}
	for _, id := range []string{"E1", "E5", "E10", "E14"} {
		if !strings.Contains(out.String(), id) {
			t.Errorf("list missing %s", id)
		}
	}
}

func TestUnknownExperiment(t *testing.T) {
	// The index ends at E23; E24 is as unknown as E99.
	for _, id := range []string{"E99", "E24"} {
		var out, errOut strings.Builder
		if code := run([]string{"-exp", id}, &out, &errOut); code != 2 {
			t.Errorf("unknown experiment %s should exit 2, got %d", id, code)
		}
		if !strings.Contains(errOut.String(), id) {
			t.Errorf("error should name the unknown id %s: %s", id, errOut.String())
		}
	}
}

// TestFigureExperiments runs the figure reproductions (they self-verify
// and return errors on mismatch with the paper).
func TestFigureExperiments(t *testing.T) {
	var out, errOut strings.Builder
	code := run([]string{"-quick", "-exp", "E1,E2,E3,E4,E5"}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut.String())
	}
	for _, want := range []string{
		"strong satisfiability (semantics): true",
		"false [F2]",
		"plain system order-dependent: true",
		"Church-Rosser (Theorem 4a): true",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q", want)
		}
	}
}

// TestValidationExperiments runs the random-agreement sweeps in quick
// mode; any semantic disagreement fails the experiment.
func TestValidationExperiments(t *testing.T) {
	var out, errOut strings.Builder
	code := run([]string{"-quick", "-exp", "E6,E7,E8"}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "confirmed") {
		t.Error("validations should print confirmations")
	}
}

// TestStoryExperiments runs E11-E13 in quick mode.
func TestStoryExperiments(t *testing.T) {
	var out, errOut strings.Builder
	code := run([]string{"-quick", "-exp", "E11,E12,E13"}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "weak-only margin") {
		t.Error("E11 table missing")
	}
	if !strings.Contains(out.String(), "F2 rate") {
		t.Error("E12 table missing")
	}
	if !strings.Contains(out.String(), "lossless=true") {
		t.Error("E13 report missing")
	}
}

// TestComplexitySweeps runs the timing sweeps in quick mode: the point is
// not the timings but that the harness self-checks (algorithm agreement,
// satisfiable workloads) without error.
func TestComplexitySweeps(t *testing.T) {
	var out, errOut strings.Builder
	code := run([]string{"-quick", "-exp", "E9,E10,E14"}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut.String())
	}
	for _, want := range []string{"pairwise/sorted", "naive/congr", "presorted"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q", want)
		}
	}
}

// TestEngineSweep runs E15 in quick mode: it self-checks verdict
// agreement between the naive and indexed engines and fails unless the
// indexed engine wins at the largest size.
func TestEngineSweep(t *testing.T) {
	var out, errOut strings.Builder
	code := run([]string{"-quick", "-exp", "E15"}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut.String())
	}
	for _, want := range []string{"indexed-seq", "speedup", "agree"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}
}

// TestQuerySweep runs E19 in quick mode: the selection engines must
// agree answer-for-answer on both predicate batteries (the 5x bar is
// asserted by full runs only).
func TestQuerySweep(t *testing.T) {
	var out, errOut strings.Builder
	code := run([]string{"-quick", "-exp", "E19"}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut.String())
	}
	for _, want := range []string{"|Q|", "indexed-seq", "speedup", "agree", "multi-conjunct battery"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}
}

func TestEngineFlag(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-engine", "naive", "-quick", "-exp", "E12"}, &out, &errOut); code != 0 {
		t.Errorf("naive engine run: exit %d, stderr: %s", code, errOut.String())
	}
	if code := run([]string{"-engine", "bogus", "-exp", "E12"}, &out, &errOut); code != 2 {
		t.Errorf("bad engine should exit 2, got %d", code)
	}
}

func TestTableRendering(t *testing.T) {
	tb := &table{header: []string{"col", "value"}}
	tb.add("a", "1")
	tb.add("longer", "22")
	var b strings.Builder
	tb.write(&b)
	out := b.String()
	if !strings.Contains(out, "col") || !strings.Contains(out, "longer") {
		t.Errorf("table rendering:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 {
		t.Errorf("expected header+separator+2 rows, got %d lines", len(lines))
	}
}

// TestWALSweep runs E20 in quick mode: every durability configuration
// must reopen to the oracle's exact state (the 5x group-commit bar is
// asserted by full runs only), and -json must emit the measurements.
func TestWALSweep(t *testing.T) {
	jsonPath := filepath.Join(t.TempDir(), "bench_wal.json")
	var out, errOut strings.Builder
	code := run([]string{"-quick", "-exp", "E20", "-json", jsonPath}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut.String())
	}
	for _, want := range []string{"fsync-per-commit", "group-commit-64", "nosync", "commits/s"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}
	data, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatalf("-json artifact: %v", err)
	}
	var records []map[string]any
	if err := json.Unmarshal(data, &records); err != nil {
		t.Fatalf("-json artifact is not valid JSON: %v", err)
	}
	if len(records) != 3 {
		t.Fatalf("expected 3 records, got %d", len(records))
	}
	for _, r := range records {
		if r["experiment"] != "E20" || r["total_ns"].(float64) <= 0 || r["date"] == "" {
			t.Errorf("malformed record: %v", r)
		}
	}
}

// TestFaultLayerSweep runs E21 in quick mode: both pairs must complete
// with oracle-identical recovery, the degraded-mode serving check must
// pass (it asserts unconditionally), and -json must emit all four
// measurements. The 5% indirection bar is asserted by full runs only.
func TestFaultLayerSweep(t *testing.T) {
	jsonPath := filepath.Join(t.TempDir(), "bench_faults.json")
	var out, errOut strings.Builder
	code := run([]string{"-quick", "-exp", "E21", "-json", jsonPath}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut.String())
	}
	for _, want := range []string{
		"fsync64/direct-os-baseline", "fsync64/durable-via-iox",
		"nosync/direct-os-baseline", "nosync/durable-via-iox",
		"Degraded-mode check", "Recover()",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}
	data, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatalf("-json artifact: %v", err)
	}
	var records []map[string]any
	if err := json.Unmarshal(data, &records); err != nil {
		t.Fatalf("-json artifact is not valid JSON: %v", err)
	}
	if len(records) != 4 {
		t.Fatalf("expected 4 records, got %d", len(records))
	}
	for _, r := range records {
		if r["experiment"] != "E21" || r["total_ns"].(float64) <= 0 || r["date"] == "" {
			t.Errorf("malformed record: %v", r)
		}
	}
}

// TestLoadSweep runs E23 in quick mode: both closed-loop baselines and
// every open-loop point must match the replay oracle's final state and
// finish with zero unclassified errors, the live-daemon leg must verify
// its state over the wire, and -json must emit one record per
// measurement with the open-loop latency fields filled (the 3x
// saturation bar is asserted by full runs only).
func TestLoadSweep(t *testing.T) {
	jsonPath := filepath.Join(t.TempDir(), "bench_load.json")
	var out, errOut strings.Builder
	code := run([]string{"-quick", "-exp", "E23", "-json", jsonPath}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut.String())
	}
	for _, want := range []string{
		"closed/S=1", "closed/S=8", "open/S=1/rate=400", "open/S=8/rate=1600",
		"open/serve/rate=400", "p999", "saturation:",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}
	data, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatalf("-json artifact: %v", err)
	}
	var records []map[string]any
	if err := json.Unmarshal(data, &records); err != nil {
		t.Fatalf("-json artifact is not valid JSON: %v", err)
	}
	if len(records) != 7 {
		t.Fatalf("expected 7 records (2 closed + 4 open + 1 serve), got %d", len(records))
	}
	for _, r := range records {
		if r["experiment"] != "E23" || r["total_ns"].(float64) <= 0 || r["date"] == "" {
			t.Errorf("malformed record: %v", r)
		}
		p50, _ := r["p50_ns"].(float64)
		p99, _ := r["p99_ns"].(float64)
		p999, _ := r["p999_ns"].(float64)
		achieved, _ := r["achieved_ops_per_sec"].(float64)
		if !(0 < p50 && p50 <= p99 && p99 <= p999) || achieved <= 0 {
			t.Errorf("latency fields out of order in %v", r)
		}
	}
}

// TestBenchArtifactSchema strict-decodes every committed BENCH_*.json
// at the repo root against the benchRecord schema: an experiment that
// drifts the artifact format (renamed field, wrong type, stray key)
// fails here instead of surprising a downstream consumer.
func TestBenchArtifactSchema(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "BENCH_*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Skip("no committed BENCH_*.json artifacts")
	}
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		dec := json.NewDecoder(strings.NewReader(string(data)))
		dec.DisallowUnknownFields()
		var records []benchRecord
		if err := dec.Decode(&records); err != nil {
			t.Errorf("%s: does not match the benchRecord schema: %v", filepath.Base(path), err)
			continue
		}
		if len(records) == 0 {
			t.Errorf("%s: empty artifact", filepath.Base(path))
		}
		for i, r := range records {
			if r.Experiment == "" || r.Config == "" || r.N <= 0 || r.TotalNs <= 0 ||
				r.OpsPerS <= 0 || r.Speedup <= 0 || r.Date == "" {
				t.Errorf("%s[%d]: incomplete record %+v", filepath.Base(path), i, r)
			}
			// The latency fields are optional but must be coherent when
			// any of them is present.
			if r.P50Ns != 0 || r.P99Ns != 0 || r.P999Ns != 0 {
				if !(0 < r.P50Ns && r.P50Ns <= r.P99Ns && r.P99Ns <= r.P999Ns) ||
					r.AchievedOpsPerS <= 0 {
					t.Errorf("%s[%d]: incoherent latency fields %+v", filepath.Base(path), i, r)
				}
			}
		}
	}
}

// TestShardSweep runs E22 in quick mode: every shard count must match
// the unsharded oracle's final state tuple-for-tuple and keep the weak
// invariant (the 3x bar at S=8 is asserted by full runs only), and
// -json must emit one record per configuration in the shared schema.
func TestShardSweep(t *testing.T) {
	jsonPath := filepath.Join(t.TempDir(), "bench_shard.json")
	var out, errOut strings.Builder
	code := run([]string{"-quick", "-exp", "E22", "-json", jsonPath}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut.String())
	}
	for _, want := range []string{
		"recheck/S=1", "recheck/S=8", "recheck/S=8/cross-shard-2pc",
		"incremental/S=1/4-writers", "incremental/S=8/4-writers", "vs S=1",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}
	data, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatalf("-json artifact: %v", err)
	}
	var records []map[string]any
	if err := json.Unmarshal(data, &records); err != nil {
		t.Fatalf("-json artifact is not valid JSON: %v", err)
	}
	if len(records) != 7 {
		t.Fatalf("expected 7 records (5 recheck + 2 incremental), got %d", len(records))
	}
	for _, r := range records {
		if r["experiment"] != "E22" || r["total_ns"].(float64) <= 0 ||
			r["speedup"].(float64) <= 0 || r["date"] == "" {
			t.Errorf("malformed record: %v", r)
		}
	}
}

package main

import (
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
	// The index ends at E14: engine agreement is checked by package tests.
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if last := lines[len(lines)-1]; !strings.HasPrefix(last, "E14 ") {
		t.Errorf("-list ends with %q, want E14", last)
	}
}

func TestUnknownExperiment(t *testing.T) {
	// The index ends at E14; E15 and E19 are as unknown as E99.
	for _, id := range []string{"E99", "E15", "E19"} {
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

// TestEngineFlag: fdbench no longer takes an engine to run its
// experiments on, nor writes measurement artifacts; the flag package
// itself refuses both flags.
func TestEngineFlag(t *testing.T) {
	for _, args := range [][]string{{"-engine", "naive", "-exp", "E12"}, {"-json", "out.json", "-exp", "E12"}} {
		var out, errOut strings.Builder
		if code := run(args, &out, &errOut); code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
		if want := "flag provided but not defined: " + args[0]; !strings.Contains(errOut.String(), want) {
			t.Errorf("%v: stderr missing %q: %s", args, want, errOut.String())
		}
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

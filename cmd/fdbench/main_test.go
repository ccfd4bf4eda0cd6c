package main

import (
	"errors"
	"fmt"
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
	// The index ends at E19; E20 is as unknown as E99.
	for _, id := range []string{"E99", "E20"} {
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

// TestAgreementSweeps runs E15–E19 in quick mode: each must find its
// production engine and its oracle in agreement on every cell (exit 0)
// and print one table per sweep with an agree column. Durations and
// ratios are printed for information and are not looked at.
func TestAgreementSweeps(t *testing.T) {
	for _, tc := range []struct {
		id     string
		tables int
		want   []string // column headers
	}{
		{"E15", 1, []string{"|F|", "naive", "indexed-seq", "indexed-pool("}},
		{"E16", 1, []string{"conv", "naive", "partition("}},
		{"E17", 1, []string{"ops", "recheck", "incremental"}},
		{"E18", 1, []string{"sets", "oracle (1 chase)", "per-op inc", "batched txn"}},
		{"E19", 2, []string{"|Q|", "naive", "indexed-seq", "indexed-pool(", "multi-conjunct battery"}},
	} {
		t.Run(tc.id, func(t *testing.T) {
			var out, errOut strings.Builder
			if code := run([]string{"-quick", "-exp", tc.id}, &out, &errOut); code != 0 {
				t.Fatalf("exit %d, stderr: %s", code, errOut.String())
			}
			if got := strings.Count(out.String(), "  agree\n"); got != tc.tables {
				t.Errorf("%d tables with an agree column, want %d:\n%s", got, tc.tables, out.String())
			}
			if strings.Count(out.String(), "  yes\n") < 2*tc.tables {
				t.Errorf("fewer than two agreeing cells per table:\n%s", out.String())
			}
			for _, want := range tc.want {
				if !strings.Contains(out.String(), want) {
					t.Errorf("output missing %q:\n%s", want, out.String())
				}
			}
		})
	}
}

// TestSweepNamesDisagreement feeds the harness a cell on which the second
// production side differs from the oracle: the error must name the cell
// and that side, and a side's own error must come back the same way.
func TestSweepNamesDisagreement(t *testing.T) {
	sw := sweep[int]{
		params: []string{"n", "p"},
		sides:  []string{"oracle", "fast", "faster"},
		equal: func(oracle, got int) error {
			if oracle != got {
				return fmt.Errorf("%d is not %d", got, oracle)
			}
			return nil
		},
		cells: []cell[int]{
			{label: []string{"7", "2"}, run: func(int) (int, error) { return 1, nil }},
			{label: []string{"8", "3"}, run: func(side int) (int, error) { return side / 2, nil }},
		},
	}
	var out strings.Builder
	err := sw.run(&out)
	if err == nil {
		t.Fatalf("a disagreement went unreported:\n%s", out.String())
	}
	for _, want := range []string{"[8 3]", "side faster", "1 is not 0"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name %q", err, want)
		}
	}
	if strings.Contains(err.Error(), "[7 2]") || out.Len() != 0 {
		t.Errorf("the agreeing cell was blamed, or a table was printed: %q\n%s", err, out.String())
	}

	broken := errors.New("side broke")
	sw.cells = sw.cells[:1]
	sw.cells[0].run = func(side int) (int, error) { return 0, broken }
	if err := sw.run(&out); !errors.Is(err, broken) || !strings.Contains(err.Error(), "side oracle") {
		t.Errorf("a side's own error should come back naming the side, got %v", err)
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

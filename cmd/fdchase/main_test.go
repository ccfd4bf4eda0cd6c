package main

import (
	"strings"
	"testing"
)

const input = `
domain d = v1 v2 v3 v4 v5 v6
scheme R(A:d, B:d, C:d)
fd A -> B
row v1 v2 v3
row v1 - v4
row v2 -7 v5
row v2 -8 v6
`

func TestChaseSubstitutesAndReportsNECs(t *testing.T) {
	var out, errOut strings.Builder
	code := run(nil, strings.NewReader(input), &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut.String())
	}
	got := out.String()
	if !strings.Contains(got, "minimally incomplete instance") {
		t.Errorf("missing result header:\n%s", got)
	}
	// The null of tuple 2 must be bound to v2; the two marked nulls must
	// form a NEC class.
	if !strings.Contains(got, "null-equality classes") {
		t.Errorf("missing NEC report:\n%s", got)
	}
	if !strings.Contains(got, "[7 8]") {
		t.Errorf("marks 7 and 8 should form a class:\n%s", got)
	}
	if !strings.Contains(got, "weakly satisfiable: yes") {
		t.Errorf("should be weakly satisfiable:\n%s", got)
	}
}

func TestChaseDetectsContradiction(t *testing.T) {
	bad := `
domain d = v1 v2 v3
scheme R(A:d, B:d)
fd A -> B
row v1 v2
row v1 v3
`
	var out, errOut strings.Builder
	code := run(nil, strings.NewReader(bad), &out, &errOut)
	if code != 1 {
		t.Fatalf("exit %d (want 1)", code)
	}
	if !strings.Contains(out.String(), "weakly satisfiable: NO") {
		t.Errorf("should report the contradiction:\n%s", out.String())
	}
}

// TestChasePlainModeReportsStuck runs the paper's Figure 5 instance
// through both rule systems: plain, in the file's FD order, binds the
// null to v2 and leaves C -> B's conflict stuck; extended reaches the
// unique normal form, `nothing` throughout. The goldens are the output of
// `-mode plain -engine naive` and `-mode extended -engine congruence`
// before -engine was removed, less the engine name in the header.
func TestChasePlainModeReportsStuck(t *testing.T) {
	const figure5 = `
domain d = v1 v2 v3 v4
scheme R(A:d, B:d, C:d)
fd A -> B
fd C -> B
row v1 v2 v1
row v1 - v3
row v4 v3 v3
`
	const inputBlock = `input (3 tuples, 1 nulls):
A   B   C
v1  v2  v1
v1  -1  v3
v4  v3  v3

`
	for _, c := range []struct {
		mode string
		code int
		want string
	}{
		{"plain", 0, inputBlock + `minimally incomplete instance (plain, 2 passes, 1 rule applications):
A   B   C
v1  v2  v1
v1  v2  v3
v4  v3  v3

stuck classical conflict: tuples 1,2 conflict on attribute 1 (C -> B)
`},
		{"extended", 1, inputBlock + `minimally incomplete instance (extended, 2 passes, 2 rule applications):
A   B  C
v1  !  v1
v1  !  !
v4  !  !

weakly satisfiable: NO (` + "`!`" + ` cells mark unavoidable conflicts)
`},
	} {
		var out, errOut strings.Builder
		if code := run([]string{"-mode", c.mode}, strings.NewReader(figure5), &out, &errOut); code != c.code {
			t.Fatalf("-mode %s: exit %d, want %d (stderr: %s)", c.mode, code, c.code, errOut.String())
		}
		if out.String() != c.want {
			t.Errorf("-mode %s output drifted:\n--- got ---\n%s--- want ---\n%s", c.mode, out.String(), c.want)
		}
	}
}

func TestChaseFlagValidation(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-mode", "bogus"}, strings.NewReader(input), &out, &errOut); code != 2 {
		t.Errorf("bad mode should exit 2, got %d", code)
	}
	// The engine selector is gone: the flag package itself refuses it.
	errOut.Reset()
	if code := run([]string{"-engine", "naive"}, strings.NewReader(input), &out, &errOut); code != 2 {
		t.Errorf("-engine should exit 2, got %d", code)
	}
	if want := "flag provided but not defined: -engine"; !strings.Contains(errOut.String(), want) {
		t.Errorf("stderr missing %q: %s", want, errOut.String())
	}
	if code := run([]string{"-f", "/nonexistent"}, strings.NewReader(""), &out, &errOut); code != 2 {
		t.Errorf("missing file should exit 2, got %d", code)
	}
}

package main

import (
	"fmt"
	"strings"
	"testing"

	"fdnull/internal/query"
	"fdnull/internal/relio"
)

const input = `
domain emp = e1 e2 e3
domain dep = d1 d2
domain ms  = married single
scheme R(E#:emp, D#:dep, MS:ms)
fd E# -> D#,MS
row e1 d1 married
row e2 d1 -
row e3 d2 single
`

func TestQueryCertainAndPossible(t *testing.T) {
	var out, errOut strings.Builder
	code := run([]string{"-where", "MS = married"}, strings.NewReader(input), &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	got := out.String()
	if !strings.Contains(got, "certain answers (1)") {
		t.Errorf("e1 is certainly married:\n%s", got)
	}
	if !strings.Contains(got, "possible answers (1)") {
		t.Errorf("e2 is possibly married:\n%s", got)
	}
}

func TestQueryLeastExtension(t *testing.T) {
	// The Section 2 transformation: the domain-covering set makes the
	// null tuple a certain answer.
	var out, errOut strings.Builder
	code := run([]string{"-where", "MS in (married, single)"}, strings.NewReader(input), &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "certain answers (3)") {
		t.Errorf("every tuple is certainly married-or-single:\n%s", out.String())
	}
}

func TestQueryWithChase(t *testing.T) {
	// After the chase, e2 inherits nothing here (no FD forces MS), but
	// the run must succeed and keep both partitions.
	var out, errOut strings.Builder
	code := run([]string{"-chase", "-where", "D# = d1"}, strings.NewReader(input), &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "certain answers (2)") {
		t.Errorf("e1 and e2 are certainly in d1:\n%s", out.String())
	}
}

func TestQueryChaseRejectsInconsistent(t *testing.T) {
	bad := `
domain d = x y
scheme R(A:d, B:d)
fd A -> B
row x x
row x y
`
	var out, errOut strings.Builder
	if code := run([]string{"-chase", "-where", "A = x"}, strings.NewReader(bad), &out, &errOut); code != 2 {
		t.Errorf("inconsistent instance with -chase should exit 2, got %d", code)
	}
}

func TestQueryFlagValidation(t *testing.T) {
	var out, errOut strings.Builder
	if code := run(nil, strings.NewReader(input), &out, &errOut); code != 2 {
		t.Error("-where is required")
	}
	if code := run([]string{"-where", "ZZ = 1"}, strings.NewReader(input), &out, &errOut); code != 2 {
		t.Error("bad predicate should exit 2")
	}
	if code := run([]string{"-where", "MS = married", "-f", "/nonexistent"}, strings.NewReader(""), &out, &errOut); code != 2 {
		t.Error("missing file should exit 2")
	}
	if code := run([]string{"-where", "MS = married"}, strings.NewReader("junk"), &out, &errOut); code != 2 {
		t.Error("bad input should exit 2")
	}
}

func TestQueryCheckFDs(t *testing.T) {
	var out, errOut strings.Builder
	code := run([]string{"-checkfds", "-where", "MS = married"},
		strings.NewReader(input), &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	got := out.String()
	if !strings.Contains(got, "FD satisfaction (indexed engine") {
		t.Errorf("missing FD summary:\n%s", got)
	}
	if !strings.Contains(got, "E# -> D#,MS") {
		t.Errorf("summary should name the FD:\n%s", got)
	}
	if !strings.Contains(got, "certain answers (1)") {
		t.Errorf("query answers must be unaffected:\n%s", got)
	}
}

// TestQueryBadEngine: the engine selector is gone, so the flag package
// itself refuses it.
func TestQueryBadEngine(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-engine", "naive", "-where", "MS = married"},
		strings.NewReader(input), &out, &errOut); code != 2 {
		t.Errorf("-engine should exit 2, got %d", code)
	}
	if want := "flag provided but not defined: -engine"; !strings.Contains(errOut.String(), want) {
		t.Errorf("stderr missing %q: %s", want, errOut.String())
	}
}

// TestQueryEngines: the answers the CLI prints are the naive scan's.
func TestQueryEngines(t *testing.T) {
	where := "MS = married and D# = d1"
	var out, errOut strings.Builder
	if code := run([]string{"-where", where}, strings.NewReader(input), &out, &errOut); code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	parsed, err := relio.Parse(strings.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	p, err := query.ParsePred(parsed.Scheme, where)
	if err != nil {
		t.Fatal(err)
	}
	naive := query.SelectWith(parsed.Relation, p, query.Options{Engine: query.EngineNaive})
	var want strings.Builder
	fmt.Fprintf(&want, "\ncertain answers (%d):\n", len(naive.Sure))
	for _, j := range naive.Sure {
		fmt.Fprintf(&want, "  t%-3d %s\n", j+1, parsed.Relation.Tuple(j))
	}
	fmt.Fprintf(&want, "\npossible answers (%d):\n", len(naive.Maybe))
	for _, j := range naive.Maybe {
		fmt.Fprintf(&want, "  t%-3d %s\n", j+1, parsed.Relation.Tuple(j))
	}
	if !strings.HasSuffix(out.String(), want.String()) {
		t.Errorf("CLI answers differ from the naive scan:\n%s\nwant suffix:\n%s", out.String(), want.String())
	}
}

func TestQueryMultiWhere(t *testing.T) {
	var out, errOut strings.Builder
	code := run([]string{"-workers", "2", "-where", "MS = married", "-where", "D# = d1"},
		strings.NewReader(input), &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	if n := strings.Count(out.String(), "predicate:"); n != 2 {
		t.Errorf("want 2 predicate blocks, got %d:\n%s", n, out.String())
	}
}

// TestQueryOutOfDomainDiagnostic pins the parse-time rejection: a typo'd
// constant used to return a silently empty answer; now it is an error
// naming the domain.
func TestQueryOutOfDomainDiagnostic(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-where", "MS = marired"}, strings.NewReader(input), &out, &errOut); code != 2 {
		t.Fatalf("typo'd constant should exit 2, got %d", code)
	}
	if !strings.Contains(errOut.String(), "marired") || !strings.Contains(errOut.String(), "ms") {
		t.Errorf("diagnostic should name the constant and domain: %s", errOut.String())
	}
}

const storeInput = `
domain emp = e1 e2 e3
domain dep = d1 d2
domain ms  = married single
scheme R(E#:emp, D#:dep, MS:ms)
fd E# -> MS
row e1 d1 married
row e1 d2 -
row e2 d2 -
`

func TestQueryStoreRefines(t *testing.T) {
	// Plain: only the explicit row is certain; the null rows are maybes.
	var out, errOut strings.Builder
	if code := run([]string{"-where", "MS = married"}, strings.NewReader(storeInput), &out, &errOut); code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "certain answers (1)") ||
		!strings.Contains(out.String(), "possible answers (2)") {
		t.Errorf("plain run: want 1 certain / 2 possible:\n%s", out.String())
	}
	// -store: E# -> MS forces e1's second row to married (Maybe → Sure).
	out.Reset()
	errOut.Reset()
	if code := run([]string{"-store", "-where", "MS = married"}, strings.NewReader(storeInput), &out, &errOut); code != 0 {
		t.Fatalf("-store exit %d: %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "certain answers (2)") ||
		!strings.Contains(out.String(), "possible answers (1)") {
		t.Errorf("-store run: want 2 certain / 1 possible:\n%s", out.String())
	}
}

func TestQueryChaseStoreExclusive(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-chase", "-store", "-where", "MS = married"},
		strings.NewReader(input), &out, &errOut); code != 2 {
		t.Errorf("-chase with -store should exit 2, got %d", code)
	}
	if !strings.Contains(errOut.String(), "mutually exclusive") {
		t.Errorf("error should explain the conflict: %s", errOut.String())
	}
}

func TestQueryStoreRejectsInconsistent(t *testing.T) {
	bad := `
domain d = x y
scheme R(A:d, B:d)
fd A -> B
row x x
row x y
`
	var out, errOut strings.Builder
	if code := run([]string{"-store", "-where", "A = x"}, strings.NewReader(bad), &out, &errOut); code != 2 {
		t.Errorf("inconsistent instance with -store should exit 2, got %d", code)
	}
	if !strings.Contains(errOut.String(), "-store") {
		t.Errorf("error should mention -store: %s", errOut.String())
	}
}

func TestQueryExplainGolden(t *testing.T) {
	// The -explain report is deterministic: golden-match the whole output
	// for an ∧ of two probes and for an ∨ of two arms. Both ∧ probes are
	// sized exactly (2 rows each, MS's with t2's null), so the second is
	// not gathered: it could not cut the first's two candidates.
	var out, errOut strings.Builder
	code := run([]string{"-explain",
		"-where", "D# = d1 and MS = married",
		"-where", "E# = e1 or MS = single"},
		strings.NewReader(input), &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	want := `predicate: (#1 = "d1" and #2 = "married")
plan (indexed, 3 tuples): evaluated 2
  probe #1 = "d1" (est 2, got 2)
  residual order:
    1. #1 = "d1" (est frac 0.67)
    2. #2 = "married" (est frac 0.67)

certain answers (1):
  t1   (e1, d1, married)

possible answers (1):
  t2   (e2, d1, -1)

predicate: (#0 = "e1" or #2 = "single")
plan (indexed, 3 tuples): evaluated 3
  union (est 3, got 3)
    probe #0 = "e1" (est 1, got 1)
    probe #2 = "single" (est 2, got 2)
  residual order:
    1. (#0 = "e1" or #2 = "single") (est frac 1.00)

certain answers (2):
  t1   (e1, d1, married)
  t3   (e3, d2, single)

possible answers (1):
  t2   (e2, d1, -1)
`
	if got := out.String(); got != want {
		t.Errorf("explain output drifted:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

func TestQueryExplainScanReasons(t *testing.T) {
	// Unplannable predicates must report themselves as scans with the
	// reason.
	cases := []struct {
		args []string
		want string
	}{
		{[]string{"-explain", "-where", "not(MS = married)"},
			"  full scan: no plannable conjunct\n"},
	}
	for _, c := range cases {
		var out, errOut strings.Builder
		if code := run(c.args, strings.NewReader(input), &out, &errOut); code != 0 {
			t.Fatalf("%v: exit %d: %s", c.args, code, errOut.String())
		}
		if !strings.Contains(out.String(), c.want) {
			t.Errorf("%v: want %q in output:\n%s", c.args, c.want, out.String())
		}
	}
}

func TestQueryExplainWithStore(t *testing.T) {
	// -store -explain plans over the normalized snapshot; answers must
	// match the plain -store run.
	var plain, explained strings.Builder
	var errOut strings.Builder
	if code := run([]string{"-store", "-where", "D# = d1"}, strings.NewReader(input), &plain, &errOut); code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	if code := run([]string{"-store", "-explain", "-where", "D# = d1"}, strings.NewReader(input), &explained, &errOut); code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	got := explained.String()
	if !strings.Contains(got, "plan (indexed, 3 tuples)") {
		t.Errorf("store explain should plan over the snapshot:\n%s", got)
	}
	// Strip the plan block; the rest must be the plain output.
	var kept []string
	for _, line := range strings.Split(got, "\n") {
		trimmed := strings.TrimLeft(line, " ")
		if strings.HasPrefix(line, "plan (") || (line != trimmed && (strings.HasPrefix(trimmed, "probe") ||
			strings.HasPrefix(trimmed, "union") ||
			strings.HasPrefix(trimmed, "residual") || strings.HasPrefix(trimmed, "full scan") ||
			(len(trimmed) > 1 && trimmed[0] >= '1' && trimmed[0] <= '9' && trimmed[1] == '.'))) {
			continue
		}
		kept = append(kept, line)
	}
	if strings.Join(kept, "\n") != plain.String() {
		t.Errorf("-store -explain answers drifted from -store:\n%s\nvs\n%s", got, plain.String())
	}
}

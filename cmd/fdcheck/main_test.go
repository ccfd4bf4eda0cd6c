package main

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"testing"
)

const satisfiable = `
domain d = v1 v2 v3 v4 v5 v6
scheme R(A:d, B:d, C:d)
fd A -> B
fd B -> C
row v1 v2 -
row v1 - v3
`

const contradictory = `
domain da = a1 a2 a3
domain db = b1 b2 b3
domain dc = c1 c2 c3
scheme R(A:da, B:db, C:dc)
fd A -> B
fd B -> C
row a1 - c1
row a1 - c2
`

func TestRunSatisfiable(t *testing.T) {
	var out, errOut strings.Builder
	code := run(nil, strings.NewReader(satisfiable), &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut.String())
	}
	got := out.String()
	for _, want := range []string{"per-tuple verdicts", "strong satisfiability", "weak satisfiability (Theorem 4b, extended chase): true"} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}
}

func TestRunContradictory(t *testing.T) {
	var out, errOut strings.Builder
	code := run(nil, strings.NewReader(contradictory), &out, &errOut)
	if code != 1 {
		t.Fatalf("exit %d (want 1), stderr: %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "weak satisfiability (Theorem 4b, extended chase): false") {
		t.Errorf("should report unsatisfiability:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "!") {
		t.Errorf("should print the poisoned cells:\n%s", out.String())
	}
}

func TestRunBadInput(t *testing.T) {
	var out, errOut strings.Builder
	if code := run(nil, strings.NewReader("junk"), &out, &errOut); code != 2 {
		t.Errorf("bad input should exit 2, got %d", code)
	}
	if code := run([]string{"-algo", "nonsense"}, strings.NewReader(satisfiable), &out, &errOut); code != 2 {
		t.Errorf("bad algo should exit 2, got %d", code)
	}
	if code := run([]string{"-f", "/nonexistent/file"}, strings.NewReader(""), &out, &errOut); code != 2 {
		t.Errorf("missing file should exit 2, got %d", code)
	}
}

func TestRunAllAlgorithms(t *testing.T) {
	for _, algo := range []string{"sorted", "bucket", "pairwise"} {
		var out, errOut strings.Builder
		if code := run([]string{"-algo", algo}, strings.NewReader(satisfiable), &out, &errOut); code != 0 {
			t.Errorf("algo %s: exit %d", algo, code)
		}
	}
}

// TestRunBothEngines: the report names the production engine and the
// worker count it ran with, and carries the summary block. (The naive
// evaluator is no longer a CLI setting; internal/eval's differential
// tests hold the two engines together.)
func TestRunBothEngines(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-workers", "2"}, strings.NewReader(satisfiable), &out, &errOut); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut.String())
	}
	got := out.String()
	for _, want := range []string{
		"per-tuple verdicts (Proposition 1, indexed engine, 2 workers):",
		"per-FD summary:",
		"strong=",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}
}

// TestRunBadEngine: the oracle selectors are gone, so the flag package
// itself refuses them.
func TestRunBadEngine(t *testing.T) {
	for _, args := range [][]string{{"-engine", "naive"}, {"-maintenance", "recheck"}} {
		var out, errOut strings.Builder
		if code := run(args, strings.NewReader(satisfiable), &out, &errOut); code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
		if want := "flag provided but not defined: " + args[0]; !strings.Contains(errOut.String(), want) {
			t.Errorf("%v: stderr missing %q: %s", args, want, errOut.String())
		}
	}
}

func TestRunNothingCells(t *testing.T) {
	in := `
domain d = v1 v2
scheme R(A:d, B:d)
fd A -> B
row v1 !
row v1 v2
`
	var out, errOut strings.Builder
	code := run(nil, strings.NewReader(in), &out, &errOut)
	if code != 1 {
		t.Fatalf("exit %d (want 1: inconsistent), stderr: %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "per-tuple verdicts unavailable") {
		t.Errorf("should explain missing verdicts:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "weak satisfiability (Theorem 4b, extended chase): false") {
		t.Errorf("should still decide satisfiability:\n%s", out.String())
	}
}

// TestRunTooIncompleteToEnumerate: 160 rows with twenty binary nulls sit
// exactly at the completion limit; the file must be declined at once (it
// used to enumerate a million 160-row relations per tuple) and the
// satisfiability tests must still run.
func TestRunTooIncompleteToEnumerate(t *testing.T) {
	var in strings.Builder
	in.WriteString("domain a =")
	for i := 1; i <= 160; i++ {
		fmt.Fprintf(&in, " v%d", i)
	}
	in.WriteString("\ndomain b = w1 w2\nscheme R(A:a, B:b)\nfd A -> B\n")
	for i := 1; i <= 160; i++ {
		b := "w1"
		if i <= 20 {
			b = "-"
		}
		fmt.Fprintf(&in, "row v%d %s\n", i, b)
	}
	var out, errOut strings.Builder
	if code := run(nil, strings.NewReader(in.String()), &out, &errOut); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut.String())
	}
	for _, want := range []string{"per-tuple verdicts unavailable", "weak satisfiability (Theorem 4b, extended chase): true"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}
}

func TestRunNoFDs(t *testing.T) {
	var out, errOut strings.Builder
	code := run(nil, strings.NewReader("domain d = x\nscheme R(A:d)\nrow x\n"), &out, &errOut)
	if code != 0 || !strings.Contains(out.String(), "no FDs declared") {
		t.Errorf("no-FD input: exit %d\n%s", code, out.String())
	}
}

func TestRunStoreReplay(t *testing.T) {
	var out, errOut strings.Builder
	code := run([]string{"-store"}, strings.NewReader(contradictory), &out, &errOut)
	if code != 1 {
		t.Fatalf("exit %d (want 1), stderr: %s", code, errOut.String())
	}
	got := out.String()
	for _, want := range []string{
		"guarded replay:",
		"t1   accepted",
		"t2   rejected",
		"accepted 1, rejected 1",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}
}

const employeesInput = `
domain de = e1 e2 e3 e4 e5
domain ds = s1 s2 s3 s4 s5
domain dd = d1 d2 d3
domain dc = ct1 ct2 ct3
scheme R(E:de, SL:ds, D:dd, CT:dc)
fd E -> SL,D
fd D -> CT
row e1 s1 d1 ct1
`

func TestRunOpsReplay(t *testing.T) {
	script := `
# a transactional department load: nulls resolve against each other
begin
insert e2 s2 d2 -
save
insert e3 s3 d2 ct2
rollbackto
insert e4 s4 d2 ct2
commit

# a doomed transaction: e5 restates d2's contract
begin
insert e5 s5 d2 ct3
commit

# per-op mutations outside any transaction
update 1 SL s5
delete 3
`
	dir := t.TempDir()
	opsPath := dir + "/ops.txt"
	if err := os.WriteFile(opsPath, []byte(script), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errOut strings.Builder
	code := run([]string{"-ops", opsPath}, strings.NewReader(employeesInput), &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut.String())
	}
	got := out.String()
	for _, want := range []string{
		"ops replay:",
		"begin      ok",
		"rollbackto ok",
		"commit     ok",
		"commit     rejected: store: commit rejected at staged op 0",
		"update     ok",
		"delete     ok",
		"accepted 2 inserts, 1 updates, 1 deletes; 1 rejections",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}
	// The rolled-back insert (e3) must not appear in the settled state.
	if strings.Contains(got, "e3") {
		t.Errorf("rolled-back op leaked into the output:\n%s", got)
	}
	out.Reset()
	if code := run([]string{"-ops", dir + "/missing.txt"}, strings.NewReader(employeesInput), &out, &errOut); code != 2 {
		t.Errorf("missing ops file: exit %d, want 2", code)
	}
}

func TestRunOpsReplayBadScript(t *testing.T) {
	dir := t.TempDir()
	opsPath := dir + "/bad.txt"
	if err := os.WriteFile(opsPath, []byte("commit\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errOut strings.Builder
	if code := run([]string{"-ops", opsPath}, strings.NewReader(employeesInput), &out, &errOut); code != 2 {
		t.Errorf("commit outside txn: exit %d, want 2", code)
	}
	if !strings.Contains(errOut.String(), "commit outside a transaction") {
		t.Errorf("missing diagnostic: %s", errOut.String())
	}
	// An update's cell is read by the row parser's strict definition:
	// "--5" used to store a null with mark -5, "-5abc" a stray constant.
	for _, cell := range []string{"--5", "-5abc"} {
		if err := os.WriteFile(opsPath, []byte("update 1 SL "+cell+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		out.Reset()
		errOut.Reset()
		if code := run([]string{"-ops", opsPath}, strings.NewReader(employeesInput), &out, &errOut); code != 2 ||
			!strings.Contains(errOut.String(), "ops line 1") || !strings.Contains(errOut.String(), "bad null cell") {
			t.Errorf("update with cell %q: exit %d, stderr %q; want exit 2 naming line 1 and the bad null cell", cell, code, errOut.String())
		}
	}
}

// TestRunOpsReplayDurable drives the -dir durable mode across three
// process lifetimes: a fresh directory seeded from the input and a
// second run that recovers the first run's commits from checkpoint + log.
func TestRunOpsReplayDurable(t *testing.T) {
	dir := t.TempDir()
	walDir := dir + "/wal"
	ops1 := dir + "/ops1.txt"
	ops2 := dir + "/ops2.txt"
	if err := os.WriteFile(ops1, []byte("insert e2 s2 d2 -\nbegin\ninsert e3 s3 d2 ct2\ncommit\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(ops2, []byte("delete 1\nupdate 2 SL s5\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	var out1, errOut strings.Builder
	if code := run([]string{"-ops", ops1, "-dir", walDir}, strings.NewReader(employeesInput), &out1, &errOut); code != 0 {
		t.Fatalf("first run: exit %d, stderr: %s", code, errOut.String())
	}
	for _, want := range []string{"durable dir", "fresh log: seeded 1 of 1 input rows", "commit     ok",
		"health: mode=healthy"} {
		if !strings.Contains(out1.String(), want) {
			t.Errorf("first run missing %q:\n%s", want, out1.String())
		}
	}

	var out2 strings.Builder
	errOut.Reset()
	if code := run([]string{"-ops", ops2, "-dir", walDir}, strings.NewReader(employeesInput), &out2, &errOut); code != 0 {
		t.Fatalf("second run: exit %d, stderr: %s", code, errOut.String())
	}
	got := out2.String()
	for _, want := range []string{
		"existing log: recovered 3 tuples (input rows ignored)",
		"delete     ok",
		"update     ok",
		"accepted 0 inserts, 1 updates, 1 deletes",
		// ct2 resolved the fresh null of e2's first-run insert; both must
		// have survived the restart.
		"e3  s3  d2  ct2",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("second run missing %q:\n%s", want, got)
		}
	}

	// -dir without -ops is a usage error.
	errOut.Reset()
	var out4 strings.Builder
	if code := run([]string{"-dir", walDir}, strings.NewReader(employeesInput), &out4, &errOut); code != 2 {
		t.Errorf("-dir without -ops: exit %d, want 2", code)
	}
}

// TestRunDurableDegradedExit: a directory whose state recovers but
// whose log cannot accept appends opens degraded — fdcheck must print
// the health line and exit nonzero instead of pretending to replay.
func TestRunDurableDegradedExit(t *testing.T) {
	dir := t.TempDir()
	walDir := dir + "/wal"
	ops := dir + "/ops.txt"
	if err := os.WriteFile(ops, []byte("insert e2 s2 d2 ct2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errOut strings.Builder
	if code := run([]string{"-ops", ops, "-dir", walDir}, strings.NewReader(employeesInput), &out, &errOut); code != 0 {
		t.Fatalf("seed run: exit %d, stderr: %s", code, errOut.String())
	}

	// Remove every segment and squat a directory on the name the next
	// segment must take (ckptseq+1 from the manifest), so recovery finds
	// the full state but cannot establish a writer.
	mb, err := os.ReadFile(walDir + "/MANIFEST")
	if err != nil {
		t.Fatal(err)
	}
	ckptSeq := -1
	for _, line := range strings.Split(string(mb), "\n") {
		if f := strings.Fields(line); len(f) == 2 && f[0] == "ckptseq" {
			if ckptSeq, err = strconv.Atoi(f[1]); err != nil {
				t.Fatal(err)
			}
		}
	}
	if ckptSeq < 0 {
		t.Fatalf("no ckptseq in manifest:\n%s", mb)
	}
	entries, err := os.ReadDir(walDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "wal-") && strings.HasSuffix(e.Name(), ".seg") {
			if err := os.Remove(walDir + "/" + e.Name()); err != nil {
				t.Fatal(err)
			}
		}
	}
	squat := fmt.Sprintf("%s/wal-%020d.seg", walDir, ckptSeq+1)
	if err := os.Mkdir(squat, 0o755); err != nil {
		t.Fatal(err)
	}

	out.Reset()
	errOut.Reset()
	if code := run([]string{"-ops", ops, "-dir", walDir}, strings.NewReader(employeesInput), &out, &errOut); code != 2 {
		t.Fatalf("degraded dir: exit %d, want 2 (stderr: %s)", code, errOut.String())
	}
	if !strings.Contains(out.String(), "health: mode=degraded") {
		t.Errorf("degraded health line missing:\n%s", out.String())
	}
	if !strings.Contains(errOut.String(), "degraded") {
		t.Errorf("degraded diagnostic missing: %s", errOut.String())
	}
}

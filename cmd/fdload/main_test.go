package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// shortArgs is a fast deterministic store-target run.
func shortArgs(extra ...string) []string {
	args := []string{
		"-seed", "99", "-rate", "500", "-duration", "300ms", "-warmup", "100ms",
		"-workers", "4", "-keys", "64", "-skew", "1.3", "-shards", "4",
		"-mix", "read=20,insert=15,update=40,delete=15,txn=10",
	}
	return append(args, extra...)
}

// TestRerunReproducesOpCounts is the simulator's headline determinism
// contract: the schedule is a pure function of the seed, so two fdload
// invocations with the same spec issue exactly the same op counts —
// only the measured times may differ.
func TestRerunReproducesOpCounts(t *testing.T) {
	issuedLine := func() string {
		var out, errOut strings.Builder
		if code := run(shortArgs(), &out, &errOut); code != 0 {
			t.Fatalf("exit %d, stderr: %s", code, errOut.String())
		}
		for _, line := range strings.Split(out.String(), "\n") {
			if strings.HasPrefix(line, "issued:") {
				return line
			}
		}
		t.Fatalf("no issued line in:\n%s", out.String())
		return ""
	}
	first, second := issuedLine(), issuedLine()
	if first != second {
		t.Errorf("same-seed reruns issued different ops:\n%s\n%s", first, second)
	}
	var out, errOut strings.Builder
	if code := run(shortArgs("-seed", "100"), &out, &errOut); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut.String())
	}
	if strings.Contains(out.String(), strings.TrimPrefix(first, "issued:")) {
		t.Error("a different seed should issue a different schedule")
	}
}

func TestJSONArtifactAndReport(t *testing.T) {
	jsonPath := filepath.Join(t.TempDir(), "load.json")
	var out, errOut strings.Builder
	if code := run(shortArgs("-json", jsonPath), &out, &errOut); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut.String())
	}
	for _, want := range []string{"spec:", "issued:", "offered", "achieved", "latency:"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("report missing %q:\n%s", want, out.String())
		}
	}
	data, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatalf("-json artifact: %v", err)
	}
	var res map[string]any
	if err := json.Unmarshal(data, &res); err != nil {
		t.Fatalf("artifact not valid JSON: %v", err)
	}
	if res["offered"].(float64) <= 0 || res["ok"].(float64) <= 0 {
		t.Errorf("artifact counters: %v", res)
	}
}

func TestClosedLoop(t *testing.T) {
	var out, errOut strings.Builder
	if code := run(shortArgs("-closed"), &out, &errOut); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "issued:") {
		t.Errorf("closed-loop report:\n%s", out.String())
	}
}

func TestSweep(t *testing.T) {
	var out, errOut strings.Builder
	code := run(shortArgs("-sweep", "300,600", "-stop-below", "0"), &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "saturation:") {
		t.Errorf("sweep output missing saturation line:\n%s", out.String())
	}
	if got := strings.Count(out.String(), "\n"); got < 4 {
		t.Errorf("sweep output too short:\n%s", out.String())
	}
}

func TestSpecFile(t *testing.T) {
	specPath := filepath.Join(t.TempDir(), "spec.json")
	spec := map[string]any{
		"seed": 7, "rate": 400, "duration": 200_000_000, "warmup": 50_000_000,
		"workers": 2, "base_keys": 32, "txn_size": 2,
	}
	data, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(specPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errOut strings.Builder
	if code := run([]string{"-spec", specPath, "-shards", "2", "-rate", "600"}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut.String())
	}
	// The explicit -rate flag overrides the file.
	if !strings.Contains(out.String(), "rate=600") {
		t.Errorf("flag should override spec file:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "seed=7") {
		t.Errorf("spec file seed lost:\n%s", out.String())
	}
}

func TestFlagErrors(t *testing.T) {
	cases := [][]string{
		{"-target", "bogus"},
		{"-mix", "read=nope"},
		{"-arrival", "sometimes"},
		{"-rate", "-5"},
		{"-target", "serve"},                        // no -auth
		{"-target", "serve", "-auth", "justtenant"}, // malformed auth
		{"-target", "serve", "-sweep", "100"},       // sweep needs store
		{"-sweep", "100", "-closed"},                // mutually exclusive
		{"-spec", "/nonexistent/spec.json"},         // unreadable spec
		{"-target", "serve", "-auth", "a:b,c:d"},    // 2 auths, 1 tenant
	}
	for _, args := range cases {
		var out, errOut strings.Builder
		if code := run(args, &out, &errOut); code != 2 {
			t.Errorf("args %v: want exit 2, got %d (stderr: %s)", args, code, errOut.String())
		}
		if errOut.Len() == 0 {
			t.Errorf("args %v: no diagnostic", args)
		}
	}
	// The engine selector is gone: the flag package itself refuses it.
	var out, errOut strings.Builder
	if code := run([]string{"-maintenance", "recheck"}, &out, &errOut); code != 2 {
		t.Errorf("-maintenance: want exit 2, got %d", code)
	}
	if want := "flag provided but not defined: -maintenance"; !strings.Contains(errOut.String(), want) {
		t.Errorf("stderr missing %q: %s", want, errOut.String())
	}
}

package main

import (
	"fmt"
	"strings"
	"testing"

	"fdnull/internal/discover"
	"fdnull/internal/relio"
)

const input = `
domain emp = e1 e2 e3
domain dep = d1 d2
domain ct  = full part
scheme R(E#:emp, D#:dep, CT:ct)
fd E# -> D#
row e1 d1 full
row e2 d1 full
row e3 d2 -
`

func TestDiscoverCLI(t *testing.T) {
	var out, errOut strings.Builder
	code := run([]string{"-cover"}, strings.NewReader(input), &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	got := out.String()
	if !strings.Contains(got, "E# -> ") {
		t.Errorf("E# is a key; some E#-determined FD expected:\n%s", got)
	}
	if !strings.Contains(got, "declared E# -> D#: implied") {
		t.Errorf("declared FD should be confirmed:\n%s", got)
	}
}

func TestDiscoverCLIWeakFindsMore(t *testing.T) {
	var strongOut, weakOut, errOut strings.Builder
	if code := run([]string{"-conv", "strong"}, strings.NewReader(input), &strongOut, &errOut); code != 0 {
		t.Fatal(errOut.String())
	}
	if code := run([]string{"-conv", "weak"}, strings.NewReader(input), &weakOut, &errOut); code != 0 {
		t.Fatal(errOut.String())
	}
	count := func(s string) int { return strings.Count(s, "\n  ") + strings.Count(s, "  ") }
	if count(weakOut.String()) < count(strongOut.String()) {
		t.Errorf("weak discovery must find at least as many FDs\nstrong:\n%s\nweak:\n%s",
			strongOut.String(), weakOut.String())
	}
}

func TestDiscoverCLIValidation(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-conv", "bogus"}, strings.NewReader(input), &out, &errOut); code != 2 {
		t.Error("bad convention should exit 2")
	}
	if code := run(nil, strings.NewReader("junk"), &out, &errOut); code != 2 {
		t.Error("bad input should exit 2")
	}
	if code := run([]string{"-f", "/nonexistent"}, strings.NewReader(""), &out, &errOut); code != 2 {
		t.Error("missing file should exit 2")
	}
	// The engine selector is gone: the flag package itself refuses it.
	errOut.Reset()
	if code := run([]string{"-engine", "naive"}, strings.NewReader(input), &out, &errOut); code != 2 {
		t.Error("-engine should exit 2")
	}
	if want := "flag provided but not defined: -engine"; !strings.Contains(errOut.String(), want) {
		t.Errorf("stderr missing %q: %s", want, errOut.String())
	}
}

// TestDiscoverCLIRejectsNegativeMaxLHS is the regression for the CLI
// silently treating -maxlhs < 0 as unbounded.
func TestDiscoverCLIRejectsNegativeMaxLHS(t *testing.T) {
	var out, errOut strings.Builder
	code := run([]string{"-maxlhs", "-1"}, strings.NewReader(input), &out, &errOut)
	if code != 2 {
		t.Fatalf("negative -maxlhs must exit 2, got %d", code)
	}
	msg := errOut.String()
	if !strings.Contains(msg, "-maxlhs must be non-negative") {
		t.Errorf("error message missing: %q", msg)
	}
	if !strings.Contains(msg, "Usage of fddiscover") {
		t.Errorf("usage message missing: %q", msg)
	}
	if out.String() != "" {
		t.Errorf("no discovery output expected, got %q", out.String())
	}
}

// TestDiscoverCLIEnginesAgree requires the CLI's listing to be, line for
// line, what the naive TEST-FDs engine discovers on the same input.
func TestDiscoverCLIEnginesAgree(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-workers", "2"}, strings.NewReader(input), &out, &errOut); code != 0 {
		t.Fatal(errOut.String())
	}
	parsed, err := relio.Parse(strings.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	naive, err := discover.Run(parsed.Relation, discover.Options{Engine: discover.EngineNaive})
	if err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("%d dependencies hold (strong convention, partition engine) in %d tuples:\n", len(naive), parsed.Relation.Len())
	for _, f := range naive {
		want += "  " + f.Format(parsed.Scheme) + "\n"
	}
	if !strings.HasPrefix(out.String(), want) {
		t.Errorf("CLI listing differs from the naive engine's:\n%s\nwant prefix:\n%s", out.String(), want)
	}
}

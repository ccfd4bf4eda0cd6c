// Command fdbench regenerates every figure, example, theorem validation,
// and complexity claim of the paper (E1–E14); the per-experiment index is
// the experiments table below, printed by -list. It is not the
// repository's benchmark: that is `go run ./bench` (see bench/README.md).
//
// Usage:
//
//	fdbench [-exp E1,E2,... | -exp all] [-quick]
//
// Each experiment prints a self-contained report; complexity sweeps print
// aligned tables of parameters vs. measured time.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

// experiment is one entry of the per-experiment index.
type experiment struct {
	id    string
	title string
	run   func(w io.Writer, quick bool) error
}

var experiments = []experiment{
	{"E1", "Figure 1.1/1.2 — FDs hold in the complete instance", runE1},
	{"E2", "Figure 1.3 — the same FDs on the instance with nulls", runE2},
	{"E3", "Figure 2 — Proposition 1 cases on r1..r4", runE3},
	{"E4", "Section 6 — per-FD weak satisfaction vs. the set", runE4},
	{"E5", "Figure 4/5 + Theorem 4 — order dependence and Church-Rosser", runE5},
	{"E6", "Theorem 2 — TEST-FDs (strong) vs. least-extension semantics", runE6},
	{"E7", "Theorem 3 — TEST-FDs (weak) on minimally incomplete instances", runE7},
	{"E8", "Theorem 1 / Lemmas 2-4 — Armstrong = System C = rules", runE8},
	{"E9", "TEST-FDs complexity — sorted vs pairwise scaling", runE9},
	{"E10", "NS-rule chase complexity — naive vs congruence scaling", runE10},
	{"E11", "Weak vs strong satisfiability as null density grows", runE11},
	{"E12", "[F2] domain-exhaustion incidence vs domain size", runE12},
	{"E13", "Normalization with nulls — decompose, pad, chase, recover", runE13},
	{"E14", "Figure 3 'Additional Assumptions' — bucketed and presorted paths", runE14},
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("fdbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	expFlag := fs.String("exp", "all", "comma-separated experiment ids (E1..E14) or 'all'")
	quick := fs.Bool("quick", false, "smaller sweeps for smoke testing")
	list := fs.Bool("list", false, "list experiments and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *list {
		for _, e := range experiments {
			fmt.Fprintf(stdout, "%-4s %s\n", e.id, e.title)
		}
		return 0
	}
	want := map[string]bool{}
	if *expFlag == "all" {
		for _, e := range experiments {
			want[e.id] = true
		}
	} else {
		for _, id := range strings.Split(*expFlag, ",") {
			want[strings.ToUpper(strings.TrimSpace(id))] = true
		}
	}
	known := map[string]bool{}
	for _, e := range experiments {
		known[e.id] = true
	}
	var unknown []string
	for id := range want {
		if !known[id] {
			unknown = append(unknown, id)
		}
	}
	if len(unknown) > 0 {
		sort.Strings(unknown)
		fmt.Fprintf(stderr, "fdbench: unknown experiments: %s\n", strings.Join(unknown, ", "))
		return 2
	}
	failed := 0
	for _, e := range experiments {
		if !want[e.id] {
			continue
		}
		fmt.Fprintf(stdout, "==== %s: %s ====\n", e.id, e.title)
		if err := e.run(stdout, *quick); err != nil {
			fmt.Fprintf(stderr, "fdbench: %s failed: %v\n", e.id, err)
			failed++
		}
		fmt.Fprintln(stdout)
	}
	if failed > 0 {
		return 1
	}
	return 0
}

// table prints aligned columns.
type table struct {
	header []string
	rows   [][]string
}

func (t *table) add(cells ...string) { t.rows = append(t.rows, cells) }

func (t *table) write(w io.Writer) {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = fmt.Sprintf("%-*s", widths[i], c)
		}
		fmt.Fprintln(w, "  "+strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(t.header)
	sep := make([]string, len(t.header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, r := range t.rows {
		line(r)
	}
}

// Command fdquery evaluates three-valued selections over a relation with
// nulls, using the least-extension semantics of Section 2 of the paper.
// It partitions the tuples into certain answers (the predicate is true
// under every completion) and possible answers (true under some).
//
// Usage:
//
//	fdquery -where 'predicate' [-where 'predicate' ...] [-f file]
//	        [-chase | -store] [-checkfds] [-explain] [-workers N]
//	fdquery -where 'MS in (married, single) and D# = d1' -f emp.txt
//
// -where may repeat; the predicates are evaluated as one batch over one
// instance, fanned across -workers goroutines (query.SelectAll).
//
// Each predicate is compiled to an algebraic plan — the smallest Eq/In
// probe of the ∧-spine, ∨ as a deduplicated union of sub-plans,
// residuals ordered by their probes' sizes — and falls back to the full
// scan when nothing is plannable; an A = B atom is never probed.
//
// -explain prints, before each predicate's answers, the compiled plan:
// the probe/union tree with estimated vs actual candidate
// counts, and the residual conjunct evaluation order — or the full-scan
// reason when nothing was plannable.
//
// With -chase the instance is first brought to its minimally incomplete
// form under the file's FDs, so forced nulls are substituted before the
// queries run — queries then see everything the dependencies imply.
//
// With -store the instance is loaded into a guarded store and the
// queries run over the instance the store settled on: besides the chase
// normalization (everything -chase gives), the NS-rules' NEC classes
// share marks, so attribute-equality atoms the raw data leaves open may
// be decided. A file that contradicts its FDs is rejected.
//
// With -checkfds the file's FDs are first evaluated by the batch engine
// (eval.CheckAll) and a per-FD satisfaction summary is printed before
// the answers, so surprising query results can be traced to violated or
// uncertain dependencies.
//
// Exit status: 0 on success (even with an empty answer), 2 on errors.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"fdnull/internal/chase"
	"fdnull/internal/eval"
	"fdnull/internal/query"
	"fdnull/internal/relio"
	"fdnull/internal/store"
)

// multiFlag accumulates repeated -where occurrences.
type multiFlag []string

func (m *multiFlag) String() string     { return strings.Join(*m, "; ") }
func (m *multiFlag) Set(v string) error { *m = append(*m, v); return nil }

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("fdquery", flag.ContinueOnError)
	fs.SetOutput(stderr)
	file := fs.String("f", "", "input file (default stdin)")
	var wheres multiFlag
	fs.Var(&wheres, "where", "predicate, e.g. 'A = x and B in (y, z)'; may repeat")
	doChase := fs.Bool("chase", false, "chase to the minimally incomplete instance first")
	useStore := fs.Bool("store", false, "query the instance a guarded store settles on (chase + NEC-shared marks)")
	checkFDs := fs.Bool("checkfds", false, "print a per-FD satisfaction summary before the answers")
	explain := fs.Bool("explain", false, "print each predicate's compiled plan before its answers")
	workers := fs.Int("workers", 0, "worker pool size for the predicate batch (0 = GOMAXPROCS)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if len(wheres) == 0 {
		fmt.Fprintln(stderr, "fdquery: -where is required")
		return 2
	}
	if *doChase && *useStore {
		fmt.Fprintln(stderr, "fdquery: -chase and -store are mutually exclusive (-store chases internally)")
		return 2
	}
	in := stdin
	if *file != "" {
		f, err := os.Open(*file)
		if err != nil {
			fmt.Fprintf(stderr, "fdquery: %v\n", err)
			return 2
		}
		defer f.Close()
		in = f
	}
	parsed, err := relio.Parse(in)
	if err != nil {
		fmt.Fprintf(stderr, "fdquery: %v\n", err)
		return 2
	}
	r := parsed.Relation
	if *checkFDs {
		if len(parsed.FDs) == 0 {
			fmt.Fprintln(stdout, "no FDs declared; nothing to check")
		} else {
			batch := eval.CheckAll(parsed.FDs, r, eval.CheckOptions{Workers: *workers})
			fmt.Fprintf(stdout, "FD satisfaction (%s engine, %d workers):\n", batch.Engine, batch.Workers)
			for _, sum := range batch.Summaries {
				if sum.Err != nil {
					fmt.Fprintf(stdout, "  %-20s unavailable: %v\n", sum.FD.Format(parsed.Scheme), sum.Err)
					continue
				}
				fmt.Fprintf(stdout, "  %-20s strong=%-5v weak=%-5v  (true %d, unknown %d, false %d)\n",
					sum.FD.Format(parsed.Scheme), sum.StrongHolds, sum.WeakHolds,
					sum.True, sum.Unknown, sum.False)
			}
		}
		fmt.Fprintln(stdout)
	}
	if *doChase {
		res, err := chase.Run(r, parsed.FDs, chase.Options{})
		if err != nil {
			fmt.Fprintf(stderr, "fdquery: %v\n", err)
			return 2
		}
		if !res.Consistent {
			fmt.Fprintln(stderr, "fdquery: the instance is not weakly satisfiable; query answers would be meaningless")
			return 2
		}
		r = res.Relation
	}
	preds := make([]query.Pred, len(wheres))
	for i, w := range wheres {
		p, err := query.ParsePred(parsed.Scheme, w)
		if err != nil {
			fmt.Fprintf(stderr, "fdquery: %v\n", err)
			return 2
		}
		preds[i] = p
	}
	opts := query.Options{Workers: *workers}
	if *useStore {
		st, err := store.FromRelation(parsed.Scheme, parsed.FDs, r)
		if err != nil {
			fmt.Fprintf(stderr, "fdquery: -store: %v\n", err)
			return 2
		}
		r = st.Snapshot() // the chase-normal-form tuples the answers index
	}
	var results []query.Result
	explains := make([]*query.Explain, len(preds))
	if *explain {
		// The explain path evaluates predicate by predicate so each report
		// describes the plan that actually produced its answers.
		results = make([]query.Result, len(preds))
		for i, p := range preds {
			results[i], explains[i] = query.SelectExplain(r, p, opts)
		}
	} else {
		results = query.SelectAll(r, preds, opts)
	}
	for i, res := range results {
		if i > 0 {
			fmt.Fprintln(stdout)
		}
		fmt.Fprintf(stdout, "predicate: %s\n", preds[i])
		if explains[i] != nil {
			explains[i].Format(stdout)
		}
		fmt.Fprintf(stdout, "\ncertain answers (%d):\n", len(res.Sure))
		for _, j := range res.Sure {
			fmt.Fprintf(stdout, "  t%-3d %s\n", j+1, r.Tuple(j))
		}
		fmt.Fprintf(stdout, "\npossible answers (%d):\n", len(res.Maybe))
		for _, j := range res.Maybe {
			fmt.Fprintf(stdout, "  t%-3d %s\n", j+1, r.Tuple(j))
		}
	}
	return 0
}

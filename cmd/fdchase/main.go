// Command fdchase reads a relation and FDs in the relio text format and
// applies the paper's null-substitution rules (Section 6) to reach a
// minimally incomplete instance. It prints the resolved instance, the
// surviving null-equality-constraint classes, and — under the extended
// system — whether the instance is weakly satisfiable (no `nothing`).
//
// Usage:
//
//	fdchase [-f file] [-mode plain|extended]
//
// -mode plain runs Definition 2 alone, pairwise in the file's FD order:
// the system is not confluent, so the result depends on that order and
// classical conflicts stay stuck (the paper's Figure 5). The default,
// extended, is Theorem 4's Church–Rosser system with its unique normal
// form.
//
// Exit status: 0 on a consistent result, 1 if the extended chase finds a
// contradiction, 2 on input errors.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	fdnull "fdnull"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("fdchase", flag.ContinueOnError)
	fs.SetOutput(stderr)
	file := fs.String("f", "", "input file (default stdin)")
	mode := fs.String("mode", "extended", "rule system: plain (Definition 2) or extended (Theorem 4)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	opts := fdnull.ChaseOptions{}
	switch *mode {
	case "plain":
		opts.Mode = fdnull.Plain
	case "extended":
		opts.Mode = fdnull.Extended
	default:
		fmt.Fprintf(stderr, "fdchase: unknown mode %q\n", *mode)
		return 2
	}

	in := stdin
	if *file != "" {
		f, err := os.Open(*file)
		if err != nil {
			fmt.Fprintf(stderr, "fdchase: %v\n", err)
			return 2
		}
		defer f.Close()
		in = f
	}
	parsed, err := fdnull.ParseFile(in)
	if err != nil {
		fmt.Fprintf(stderr, "fdchase: %v\n", err)
		return 2
	}
	s, r, fds := parsed.Scheme, parsed.Relation, parsed.FDs

	fmt.Fprintf(stdout, "input (%d tuples, %d nulls):\n%s\n", r.Len(), r.NullCount(), r)
	res, err := fdnull.Chase(r, fds, opts)
	if err != nil {
		fmt.Fprintf(stderr, "fdchase: %v\n", err)
		return 2
	}
	fmt.Fprintf(stdout, "minimally incomplete instance (%s, %d passes, %d rule applications):\n%s\n",
		*mode, res.Passes, res.Applications, res.Relation)
	if len(res.NECs) > 0 {
		fmt.Fprintln(stdout, "null-equality classes (original marks):")
		for _, class := range res.NECs {
			fmt.Fprintf(stdout, "  %v\n", class)
		}
	}
	for _, c := range res.Stuck {
		fmt.Fprintf(stdout, "stuck classical conflict: %s (%s)\n", c, c.FD.Format(s))
	}
	if opts.Mode == fdnull.Extended {
		if res.Consistent {
			fmt.Fprintln(stdout, "weakly satisfiable: yes (no `nothing` in the normal form)")
		} else {
			fmt.Fprintln(stdout, "weakly satisfiable: NO (`!` cells mark unavoidable conflicts)")
			return 1
		}
	}
	return 0
}

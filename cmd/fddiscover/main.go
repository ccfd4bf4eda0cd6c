// Command fddiscover mines the functional dependencies holding in a
// relation with nulls. Under the strong convention (default) it reports
// the *certain* dependencies — those holding in every completion of the
// nulls; under the weak convention, those merely consistent with the
// data.
//
// Usage:
//
//	fddiscover [-f file] [-conv strong|weak] [-maxlhs k] [-cover] [-workers N]
//
// Candidates are answered from cached stripped partitions, a level's
// tests fanned over the -workers pool.
//
// Exit status: 0 on success, 2 on errors.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"fdnull/internal/discover"
	"fdnull/internal/fd"
	"fdnull/internal/relio"
	"fdnull/internal/testfds"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("fddiscover", flag.ContinueOnError)
	fs.SetOutput(stderr)
	file := fs.String("f", "", "input file (default stdin)")
	conv := fs.String("conv", "strong", "convention: strong (certain FDs) or weak (consistent FDs)")
	maxLHS := fs.Int("maxlhs", 0, "maximum determinant size (0 = unbounded)")
	cover := fs.Bool("cover", false, "reduce the result to a minimal cover")
	workers := fs.Int("workers", 0, "worker pool size for candidate tests (0 = GOMAXPROCS)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *maxLHS < 0 {
		fmt.Fprintf(stderr, "fddiscover: -maxlhs must be non-negative (got %d); 0 means unbounded\n", *maxLHS)
		fs.Usage()
		return 2
	}
	opts := discover.Options{MaxLHS: *maxLHS, Workers: *workers}
	switch *conv {
	case "strong":
		opts.Convention = testfds.Strong
	case "weak":
		opts.Convention = testfds.Weak
	default:
		fmt.Fprintf(stderr, "fddiscover: unknown convention %q\n", *conv)
		return 2
	}
	in := stdin
	if *file != "" {
		f, err := os.Open(*file)
		if err != nil {
			fmt.Fprintf(stderr, "fddiscover: %v\n", err)
			return 2
		}
		defer f.Close()
		in = f
	}
	parsed, err := relio.Parse(in)
	if err != nil {
		fmt.Fprintf(stderr, "fddiscover: %v\n", err)
		return 2
	}
	runFn := discover.Run
	if *cover {
		runFn = discover.Cover
	}
	fds, err := runFn(parsed.Relation, opts)
	if err != nil {
		fmt.Fprintf(stderr, "fddiscover: %v\n", err)
		return 2
	}
	fmt.Fprintf(stdout, "%d dependencies hold (%s convention, %s engine) in %d tuples:\n",
		len(fds), *conv, opts.Engine, parsed.Relation.Len())
	for _, f := range fds {
		fmt.Fprintf(stdout, "  %s\n", f.Format(parsed.Scheme))
	}
	// Cross-check against any FDs declared in the file.
	for _, declared := range parsed.FDs {
		implied := fd.Implies(fds, declared)
		fmt.Fprintf(stdout, "declared %s: %s\n", declared.Format(parsed.Scheme),
			map[bool]string{true: "implied by the discovered set", false: "NOT implied (violated or uncertain in the data)"}[implied])
	}
	return 0
}

// Command fdcheck reads a relation and its functional dependencies in the
// relio text format and reports, per tuple and per FD, the three-valued
// verdict of the paper's extended interpretation (with the Proposition 1
// case that fired), plus the strong and weak satisfiability of the set.
//
// Usage:
//
//	fdcheck [-f file] [-algo sorted|bucket|pairwise] [-workers N]
//	        [-store] [-ops file] [-dir DIR]
//
// With no -f the input is read from stdin. Per-tuple verdicts are computed
// by the indexed evaluation engine, which probes X-partition indexes and
// fans out over a worker pool.
//
// With -store the rows are additionally replayed one by one as guarded
// inserts into a constraint-maintaining store, reporting which rows the
// dependencies reject and the minimally incomplete instance the accepted
// rows settle into.
//
// With -ops FILE the instance is loaded into a guarded store and the
// operation script in FILE is replayed against it — one op per line,
// `#` comments:
//
//	insert CELL...         guarded insert ("-" fresh null, "-k" ⊥k)
//	update N ATTR CELL     overwrite tuple N (1-based) at ATTR
//	delete N               remove tuple N (1-based)
//	begin                  open a transaction: following ops are staged
//	save                   push a savepoint
//	rollbackto             pop the latest savepoint, discarding its tail
//	rollback               discard the open transaction
//	commit                 apply the staged write-set as one batch
//
// Ops outside a transaction apply (and are checked) immediately; staged
// ops apply atomically at commit with a single batched constraint
// check, and a rejected commit reports the offending staged op.
//
// With -dir DIR the -ops replay runs against a durable store: every
// accepted commit is write-ahead logged to DIR and survives restarts.
// A fresh (empty or missing) DIR is seeded from the input's scheme,
// FDs, and rows; an existing DIR is recovered from its checkpoint and
// log — the input rows are ignored. A checkpoint is taken on exit so the
// next open replays only new commits.
//
// Exit status: 0 if the FD set is weakly satisfiable, 1 if not, 2 on
// input errors.
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	fdnull "fdnull"
	"fdnull/internal/value"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("fdcheck", flag.ContinueOnError)
	fs.SetOutput(stderr)
	file := fs.String("f", "", "input file (default stdin)")
	algo := fs.String("algo", "sorted", "TEST-FDs algorithm: sorted, bucket, or pairwise")
	workers := fs.Int("workers", 0, "evaluation worker pool size (0 = GOMAXPROCS)")
	storeReplay := fs.Bool("store", false, "replay the rows as guarded store inserts and report rejections")
	opsFile := fs.String("ops", "", "replay an operation script (insert/update/delete/begin/save/rollbackto/rollback/commit) against the loaded store")
	dirFlag := fs.String("dir", "", "durable store directory for the -ops replay: commits are write-ahead logged and survive restarts")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *dirFlag != "" && *opsFile == "" {
		fmt.Fprintln(stderr, "fdcheck: -dir is only meaningful with -ops")
		return 2
	}
	var algorithm fdnull.Algorithm
	switch *algo {
	case "sorted":
		algorithm = fdnull.SortedScan
	case "bucket":
		algorithm = fdnull.BucketScan
	case "pairwise":
		algorithm = fdnull.PairwiseScan
	default:
		fmt.Fprintf(stderr, "fdcheck: unknown algorithm %q\n", *algo)
		return 2
	}

	in := stdin
	if *file != "" {
		f, err := os.Open(*file)
		if err != nil {
			fmt.Fprintf(stderr, "fdcheck: %v\n", err)
			return 2
		}
		defer f.Close()
		in = f
	}
	parsed, err := fdnull.ParseFile(in)
	if err != nil {
		fmt.Fprintf(stderr, "fdcheck: %v\n", err)
		return 2
	}
	s, r, fds := parsed.Scheme, parsed.Relation, parsed.FDs

	fmt.Fprintf(stdout, "scheme %s, %d tuples, %d FDs\n\n", s, r.Len(), len(fds))
	fmt.Fprint(stdout, r.String())
	fmt.Fprintln(stdout)

	if len(fds) == 0 {
		fmt.Fprintln(stdout, "no FDs declared; nothing to check")
		return 0
	}

	batch := fdnull.CheckAll(fds, r, fdnull.CheckOptions{
		Workers:      *workers,
		KeepVerdicts: true,
	})
	if err := batch.Err(); err != nil {
		// Inputs containing the inconsistent element (or instances too
		// incomplete to enumerate) have no per-tuple FD verdicts; the
		// satisfiability tests below still apply.
		fmt.Fprintf(stdout, "per-tuple verdicts unavailable: %v\n\n", err)
	} else {
		fmt.Fprintf(stdout, "per-tuple verdicts (Proposition 1, %s engine, %d workers):\n",
			batch.Engine, batch.Workers)
		for i, f := range fds {
			fmt.Fprintf(stdout, "  %s:\n", f.Format(s))
			for j, v := range batch.Verdicts[i] {
				fmt.Fprintf(stdout, "    t%-3d %s\n", j+1, v)
			}
		}
		fmt.Fprintln(stdout)
		fmt.Fprintln(stdout, "per-FD summary:")
		for _, sum := range batch.Summaries {
			fmt.Fprintf(stdout, "  %-20s strong=%-5v weak=%-5v  (true %d, unknown %d, false %d)\n",
				sum.FD.Format(s), sum.StrongHolds, sum.WeakHolds,
				sum.True, sum.Unknown, sum.False)
		}
		fmt.Fprintln(stdout)
	}

	strongOK, sviol := fdnull.TestFDs(r, fds, fdnull.StrongConvention, algorithm)
	fmt.Fprintf(stdout, "strong satisfiability (Theorem 2, %s scan): %v\n", *algo, strongOK)
	if sviol != nil {
		fmt.Fprintf(stdout, "  witness: tuples %d and %d on %s\n",
			sviol.T1+1, sviol.T2+1, sviol.FD.Format(s))
	}

	weakOK, res, err := fdnull.WeaklySatisfiable(r, fds)
	if err != nil {
		fmt.Fprintf(stderr, "fdcheck: %v\n", err)
		return 2
	}
	fmt.Fprintf(stdout, "weak satisfiability (Theorem 4b, extended chase): %v\n", weakOK)
	if !weakOK {
		fmt.Fprintf(stdout, "  chased instance (! marks the unavoidable conflicts):\n")
		fmt.Fprint(stdout, indent(res.Relation.String(), "  "))
		if *storeReplay {
			// The replay shows *which* rows the dependencies reject.
			replayStore(stdout, s, fds, r)
		}
		return 1
	}
	if *storeReplay {
		replayStore(stdout, s, fds, r)
	}
	if *opsFile != "" {
		f, err := os.Open(*opsFile)
		if err != nil {
			fmt.Fprintf(stderr, "fdcheck: %v\n", err)
			return 2
		}
		defer f.Close()
		var rerr error
		if *dirFlag != "" {
			rerr = replayOpsDurable(stdout, f, s, fds, r, *dirFlag)
		} else {
			rerr = replayOpsMemory(stdout, f, s, fds, r)
		}
		if rerr != nil {
			fmt.Fprintf(stderr, "fdcheck: %v\n", rerr)
			return 2
		}
	}
	return 0
}

// replayStore replays the instance row by row as guarded inserts — the
// modification-operations reading of the file: each row is external
// acquisition, and the store decides acceptance and substitutes the
// forced nulls.
func replayStore(stdout io.Writer, s *fdnull.Scheme, fds []fdnull.FD, r *fdnull.Relation) {
	st := fdnull.NewStore(s, fds)
	fmt.Fprintln(stdout, "\nguarded replay:")
	for i := 0; i < r.Len(); i++ {
		switch err := st.Insert(r.Tuple(i).Clone()); {
		case err == nil:
			fmt.Fprintf(stdout, "  t%-3d accepted\n", i+1)
		case errors.Is(err, fdnull.ErrInconsistent):
			fmt.Fprintf(stdout, "  t%-3d rejected: %v\n", i+1, err)
		default:
			// Structural (duplicate row, domain) — not a constraint verdict.
			fmt.Fprintf(stdout, "  t%-3d error: %v\n", i+1, err)
		}
	}
	ins, _, _, rej := st.Stats()
	fmt.Fprintf(stdout, "accepted %d, rejected %d; settled instance:\n", ins, rej)
	fmt.Fprint(stdout, indent(st.Snapshot().String(), "  "))
}

// replayOpsMemory replays the script against an in-memory store seeded
// with the loaded instance.
func replayOpsMemory(stdout io.Writer, script io.Reader, s *fdnull.Scheme, fds []fdnull.FD, r *fdnull.Relation) error {
	st, err := fdnull.StoreFromRelation(s, fds, r)
	if err != nil {
		fmt.Fprintf(stdout, "\nops replay: the loaded instance is rejected: %v\n", err)
		return nil
	}
	fmt.Fprintln(stdout, "\nops replay:")
	return replayOps(stdout, script, st)
}

// replayOpsDurable replays the script against a durable store in dir: a
// fresh directory is created and seeded from the input's scheme, FDs,
// and rows (each row a guarded, logged insert); an existing directory
// is recovered from its checkpoint and log suffix, and the input rows
// are ignored. A checkpoint on exit keeps the next open cheap.
func replayOpsDurable(stdout io.Writer, script io.Reader, s *fdnull.Scheme, fds []fdnull.FD, r *fdnull.Relation, dir string) error {
	entries, err := os.ReadDir(dir)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return err
	}
	fresh := len(entries) == 0
	d, err := fdnull.OpenDurableStore(dir, fdnull.DurableOptions{Scheme: s, FDs: fds})
	if err != nil {
		return err
	}
	if h := d.Health(); h.Degraded {
		// The state recovered but durability could not be established
		// (read-only volume, blocked segment): report and refuse — a
		// replay whose commits cannot reach the disk would lie.
		printHealth(stdout, h)
		d.Close() // errcheck:ok the degradation cause below subsumes the close error
		return fmt.Errorf("durable dir %s opened in degraded read-only mode: %w", dir, h.Err)
	}
	fmt.Fprintf(stdout, "\nops replay (durable dir %s):\n", dir)
	if fresh {
		seeded := 0
		for i := 0; i < r.Len(); i++ {
			if err := d.Insert(r.Tuple(i).Clone()); err != nil {
				fmt.Fprintf(stdout, "  seed t%-3d rejected: %v\n", i+1, err)
			} else {
				seeded++
			}
		}
		fmt.Fprintf(stdout, "  fresh log: seeded %d of %d input rows\n", seeded, r.Len())
	} else {
		fmt.Fprintf(stdout, "  existing log: recovered %d tuples (input rows ignored)\n", d.Len())
	}
	rerr := replayOps(stdout, script, d)
	if rerr == nil {
		if err := d.Checkpoint(); err != nil {
			rerr = err
		}
	}
	printHealth(stdout, d.Health())
	if err := d.Close(); rerr == nil {
		rerr = err
	}
	return rerr
}

// printHealth renders the one-line durability summary for -dir runs.
func printHealth(stdout io.Writer, h fdnull.DurableHealth) {
	fmt.Fprintf(stdout, "  health: mode=%s synced=%d next=%d ckpt=%d syncs=%d retries=%d degradations=%d",
		h.Mode, h.SyncedSeq, h.NextSeq, h.CheckpointSeq, h.Syncs, h.Retries, h.Degradations)
	if h.Err != nil {
		fmt.Fprintf(stdout, " err=%q", h.Err)
	}
	fmt.Fprintln(stdout)
}

// replayOps replays an operation script — per-op mutations and
// begin/save/rollbackto/rollback/commit transaction blocks — against
// st: an in-memory store, or a durable handle that write-ahead logs
// each accepted commit before confirming it.
func replayOps(stdout io.Writer, script io.Reader, st *fdnull.Store) error {
	var tx *fdnull.Txn
	var saves []fdnull.TxnSavepoint
	report := func(line int, what string, err error) {
		switch {
		case err == nil:
			fmt.Fprintf(stdout, "  %3d %-10s ok\n", line, what)
		case errors.Is(err, fdnull.ErrInconsistent):
			fmt.Fprintf(stdout, "  %3d %-10s rejected: %v\n", line, what, err)
		default:
			fmt.Fprintf(stdout, "  %3d %-10s error: %v\n", line, what, err)
		}
	}
	sc := bufio.NewScanner(script)
	line := 0
	for sc.Scan() {
		line++
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 || strings.HasPrefix(fields[0], "#") {
			continue
		}
		cmd, args := fields[0], fields[1:]
		inTxn := tx != nil
		switch cmd {
		case "begin":
			if inTxn {
				return fmt.Errorf("ops line %d: begin inside an open transaction", line)
			}
			tx = st.Begin()
			saves = saves[:0]
			report(line, "begin", nil)
		case "save":
			if !inTxn {
				return fmt.Errorf("ops line %d: save outside a transaction", line)
			}
			saves = append(saves, tx.Save())
			report(line, "save", nil)
		case "rollbackto":
			if !inTxn {
				return fmt.Errorf("ops line %d: rollbackto outside a transaction", line)
			}
			if len(saves) == 0 {
				return fmt.Errorf("ops line %d: no savepoint to roll back to", line)
			}
			sp := saves[len(saves)-1]
			saves = saves[:len(saves)-1]
			report(line, "rollbackto", tx.RollbackTo(sp))
		case "rollback":
			if !inTxn {
				return fmt.Errorf("ops line %d: rollback outside a transaction", line)
			}
			tx.Rollback()
			tx = nil
			report(line, "rollback", nil)
		case "commit":
			if !inTxn {
				return fmt.Errorf("ops line %d: commit outside a transaction", line)
			}
			err := tx.Commit()
			tx = nil
			report(line, "commit", err)
		case "insert":
			if inTxn {
				report(line, "insert*", tx.InsertRow(args...))
			} else {
				report(line, "insert", st.InsertRow(args...))
			}
		case "update":
			if len(args) != 3 {
				return fmt.Errorf("ops line %d: update wants `update N ATTR CELL`", line)
			}
			n, err := strconv.Atoi(args[0])
			if err != nil || n < 1 {
				return fmt.Errorf("ops line %d: bad tuple number %q", line, args[0])
			}
			a, ok := st.Scheme().Attr(args[1])
			if !ok {
				return fmt.Errorf("ops line %d: unknown attribute %q", line, args[1])
			}
			var v fdnull.Value // a cell as the row parser reads it
			if args[2] == "-" {
				v = st.FreshNull()
			} else if v, err = value.Parse(args[2]); err != nil {
				return fmt.Errorf("ops line %d: %v", line, err)
			}
			if inTxn {
				report(line, "update*", tx.Update(n-1, a, v))
			} else {
				report(line, "update", st.Update(n-1, a, v))
			}
		case "delete":
			if len(args) != 1 {
				return fmt.Errorf("ops line %d: delete wants `delete N`", line)
			}
			n, err := strconv.Atoi(args[0])
			if err != nil || n < 1 {
				return fmt.Errorf("ops line %d: bad tuple number %q", line, args[0])
			}
			if inTxn {
				report(line, "delete*", tx.Delete(n-1))
			} else {
				report(line, "delete", st.Delete(n-1))
			}
		default:
			return fmt.Errorf("ops line %d: unknown op %q", line, cmd)
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if tx != nil {
		fmt.Fprintln(stdout, "  (script left a transaction open; discarded)")
		tx.Rollback()
	}
	ins, upd, del, rej := st.Stats()
	fmt.Fprintf(stdout, "accepted %d inserts, %d updates, %d deletes; %d rejections; settled instance:\n",
		ins, upd, del, rej)
	fmt.Fprint(stdout, indent(st.Snapshot().String(), "  "))
	return nil
}

func indent(s, pad string) string {
	out := ""
	start := 0
	for i := 0; i <= len(s); i++ {
		if i == len(s) || s[i] == '\n' {
			if start < i {
				out += pad + s[start:i] + "\n"
			}
			start = i + 1
		}
	}
	return out
}

// Acquisition: incremental information gathering with a guarded store and
// three-valued queries — the extension programme of the paper's
// concluding remarks ("internal (non-ambiguous substitution of nulls), or
// external (modification operations by the users)") together with the
// Section 2 query semantics.
package main

import (
	"errors"
	"fmt"
	"log"

	fdnull "fdnull"
)

func main() {
	// A personnel database: marital status has the two-valued domain of
	// the paper's Section 2 example.
	s, err := fdnull.NewScheme("Emp",
		[]string{"E#", "D#", "MS"},
		[]*fdnull.Domain{
			fdnull.IntDomain("emp#", "e", 30),
			fdnull.IntDomain("dept#", "d", 6),
			func() *fdnull.Domain {
				d, _ := fdnull.NewDomain("marital", "married", "single")
				return d
			}(),
		})
	if err != nil {
		log.Fatal(err)
	}
	fds := fdnull.MustParseFDs(s, "E# -> D#,MS")
	st := fdnull.NewStore(s, fds)

	// External acquisition: users insert what they know; gaps are nulls.
	for _, row := range [][]string{
		{"e1", "d1", "married"},
		{"e2", "d1", "-"}, // John: marital status unknown
		{"e3", "d2", "single"},
	} {
		if err := st.InsertRow(row...); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Println("stored instance:")
	fmt.Print(st.Snapshot())

	// The paper's Section 2 queries on the incomplete tuple.
	ms := s.MustAttr("MS")
	q := fdnull.Eq{Attr: ms, Const: "married"}
	qp := fdnull.In{Attr: ms, Values: []string{"married", "single"}}
	snap := st.Snapshot()
	fmt.Printf("\nQ  = %s\nQ' = %s\n", q, qp)
	fmt.Printf("Q(e2)  = %s   (lub{yes,no} — the null matters)\n", q.Eval(s, snap.Tuple(1)))
	fmt.Printf("Q'(e2) = %s   (lub{yes,yes} — it does not)\n", qp.Eval(s, snap.Tuple(1)))

	// Certain vs possible answers.
	res := fdnull.Select(snap, q)
	fmt.Printf("\nselect MS = married: sure tuples %v, maybe tuples %v\n", res.Sure, res.Maybe)

	// A mutation the dependencies forbid: e1 restated with a different
	// department. The store rejects it with the chase witness.
	err = st.InsertRow("e1", "d2", "married")
	// Constraint rejections match the ErrInconsistent sentinel (and only
	// they do — structural errors don't); errors.As recovers the witness.
	var ierr *fdnull.InconsistencyError
	if errors.Is(err, fdnull.ErrInconsistent) && errors.As(err, &ierr) {
		fmt.Printf("\ninsert (e1, d2, married) rejected: %v\n", err)
		fmt.Println("conflict witness (chased tentative instance):")
		fmt.Print(ierr.Chase.Relation)
	}

	// Learning the missing fact is a plain update; the guard accepts it.
	if err := st.Update(1, ms, fdnull.Const("single")); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nafter learning e2's status:")
	fmt.Print(st.Snapshot())
	fmt.Printf("\nstrongly satisfied now: %v\n", st.CheckStrong())
}

// explain.go renders compiled plans for `fdquery -explain`: the chosen
// probe or union arms, residual evaluation order, and estimated vs
// actual candidate counts, so plan regressions are debuggable from the
// CLI.
package query

import (
	"fmt"
	"io"
	"strings"
)

// Explain is the report of one planned (or fallen-back) selection.
type Explain struct {
	// Engine is the flag spelling of the engine that ran.
	Engine string
	// SourceLen is the number of source tuples.
	SourceLen int
	// Scan reports that the selection ran as a full scan, with Reason
	// saying why; Root and Residual are nil then.
	Scan   bool
	Reason string
	// Root is the candidate-acquisition tree.
	Root *ExplainNode
	// Residual lists the ∧-spine conjuncts in evaluation order, each
	// with its estimated non-false fraction.
	Residual []ExplainConjunct
	// Evaluated counts the tuples the full predicate was evaluated on
	// (the root's actual candidates, or SourceLen for a scan).
	Evaluated int
}

// ExplainNode mirrors one plan operator.
type ExplainNode struct {
	Op     string // "probe", "union"
	Detail string // probes: the pushed atom's rendering
	Est    int    // candidates the planner sized it at (exact for Eq, In and key probes)
	Actual int    // materialized candidates
	Kids   []*ExplainNode
}

// ExplainConjunct is one residual conjunct with its selectivity
// estimate.
type ExplainConjunct struct {
	Pred string
	Frac float64
}

// Explain reports the compiled plan.
func (pl *Plan) Explain(engine Engine) *Explain {
	if pl.root == nil {
		return scanExplain(engine, pl.n, "no plannable conjunct")
	}
	e := &Explain{Engine: engine.String(), SourceLen: pl.n, Root: pl.explainNode(pl.root), Evaluated: len(pl.root.rows)}
	for _, rc := range pl.residual {
		e.Residual = append(e.Residual, ExplainConjunct{Pred: rc.pred.String(), Frac: rc.frac})
	}
	return e
}

func (pl *Plan) explainNode(n *planNode) *ExplainNode {
	en := &ExplainNode{Op: n.op, Est: n.est, Actual: len(n.rows)}
	if n.atom != nil {
		en.Detail = n.atom.String()
	}
	key := n.key
	for _, leaf := range pl.leaves { // a key probe: the leftmost Eq atom on each attribute
		if q, ok := leaf.(Eq); ok && key.Has(q.Attr) {
			if en.Detail != "" {
				en.Detail = "(" + en.Detail + " and " + leaf.String() + ")"
			} else {
				en.Detail = leaf.String()
			}
			key = key.Remove(q.Attr)
		}
	}
	for _, k := range n.kids {
		en.Kids = append(en.Kids, pl.explainNode(k))
	}
	return en
}

// scanExplain builds the report of a selection that ran as a full scan
// for a reason outside the planner (engine choice, unindexable source).
func scanExplain(engine Engine, n int, reason string) *Explain {
	return &Explain{Engine: engine.String(), SourceLen: n, Scan: true, Reason: reason, Evaluated: n}
}

// SelectExplain evaluates one predicate like SelectWith and returns the
// plan report alongside the result. The report always says what
// actually ran: scans (naive engine, unindexable source, unplannable
// predicate) report themselves as scans with the reason.
func SelectExplain(src Source, p Pred, opts Options) (Result, *Explain) {
	ix, ok := plannerSource(src, opts.Engine)
	if !ok {
		reason := "naive engine"
		if opts.Engine != EngineNaive {
			reason = "source has no amortized indexes"
		}
		return Select(src, p), scanExplain(opts.Engine, src.Len(), reason)
	}
	plan := PlanPred(src, ix, p)
	var res Result
	plan.Run(src, &res)
	return res, plan.Explain(opts.Engine)
}

// Format writes the report as an indented tree:
//
//	plan (indexed, 2000 tuples): evaluated 44
//	  union (est 9, got 44)
//	    probe #1 = #3 (est 5, got 40)
//	    probe #0 in {"e1"} (est 4, got 4)
//	  residual order:
//	    1. ((#1 = #3 and #2 = "full") or #0 in {"e1"}) (est frac 0.00)
func (e *Explain) Format(w io.Writer) {
	fmt.Fprintf(w, "plan (%s, %d tuples): evaluated %d\n", e.Engine, e.SourceLen, e.Evaluated)
	if e.Scan {
		fmt.Fprintf(w, "  full scan: %s\n", e.Reason)
		return
	}
	e.Root.format(w, 1)
	if len(e.Residual) > 0 {
		fmt.Fprintf(w, "  residual order:\n")
		for i, rc := range e.Residual {
			fmt.Fprintf(w, "    %d. %s (est frac %.2f)\n", i+1, rc.Pred, rc.Frac)
		}
	}
}

func (en *ExplainNode) format(w io.Writer, depth int) {
	ind := strings.Repeat("  ", depth)
	if en.Detail != "" {
		fmt.Fprintf(w, "%s%s %s (est %d, got %d)\n", ind, en.Op, en.Detail, en.Est, en.Actual)
	} else {
		fmt.Fprintf(w, "%s%s (est %d, got %d)\n", ind, en.Op, en.Est, en.Actual)
	}
	for _, k := range en.Kids {
		k.format(w, depth+1)
	}
}

// String renders the report via Format.
func (e *Explain) String() string {
	var b strings.Builder
	e.Format(&b)
	return b.String()
}

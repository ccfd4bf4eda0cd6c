package eval

import (
	"errors"
	"strconv"
	"strings"
	"testing"
	"time"

	"fdnull/internal/fd"
	"fdnull/internal/relation"
	"fdnull/internal/schema"
	"fdnull/internal/tvl"
)

func engineScheme() *schema.Scheme {
	return schema.Uniform("R", []string{"A", "B", "C"},
		schema.IntDomain("d", "v", 6))
}

// TestEngineParseAndString pins the names the engines print under in
// report headers (no flag parses them any more).
func TestEngineParseAndString(t *testing.T) {
	for e, want := range map[Engine]string{EngineIndexed: "indexed", EngineNaive: "naive", Engine(7): "Engine(7)"} {
		if got := e.String(); got != want {
			t.Errorf("Engine(%d).String() = %q, want %q", int(e), got, want)
		}
	}
}

func TestCheckAllSummaries(t *testing.T) {
	s := engineScheme()
	// A→B holds strongly; B→C is violated (t1/t2 agree on B, differ on C);
	// A→C is unknown where t3's C-null can complete either way.
	r := relation.MustFromRows(s,
		[]string{"v1", "v2", "v3"},
		[]string{"v2", "v2", "v4"},
		[]string{"v1", "v2", "-"},
	)
	fds := fd.MustParseSet(s, "A -> B; B -> C; A -> C")
	res := CheckAll(fds, r, CheckOptions{KeepVerdicts: true})
	if res.Tuples != 3 || len(res.Summaries) != 3 {
		t.Fatalf("bad shape: %+v", res)
	}
	ab, bc, ac := res.Summaries[0], res.Summaries[1], res.Summaries[2]
	if !ab.StrongHolds || !ab.WeakHolds || ab.True != 3 {
		t.Errorf("A->B summary: %+v", ab)
	}
	if bc.StrongHolds || bc.WeakHolds || bc.False != 3 || bc.FirstFalse != 0 {
		t.Errorf("B->C summary: %+v", bc)
	}
	if ac.StrongHolds || !ac.WeakHolds || ac.Unknown != 2 || ac.True != 1 {
		t.Errorf("A->C summary: %+v", ac)
	}
	if res.AllStrong || res.AllWeak {
		t.Errorf("aggregates: %+v", res)
	}
	if res.Verdicts[1][0].Truth != tvl.False || res.Verdicts[0][2].Truth != tvl.True {
		t.Errorf("verdict matrix wrong: %v", res.Verdicts)
	}
	if res.Err() != nil {
		t.Errorf("unexpected error: %v", res.Err())
	}
}

func TestCheckAllEarlyCancel(t *testing.T) {
	s := engineScheme()
	r := relation.New(s)
	// Two violating tuples up front, then many satisfied ones.
	r.MustInsertRow("v1", "v1", "v1")
	r.MustInsertRow("v1", "v2", "v1")
	for i := 3; i <= 6; i++ {
		r.MustInsertRow("v"+string(rune('0'+i)), "v1", "v1")
	}
	fds := fd.MustParseSet(s, "A -> B")
	res := CheckAll(fds, r, CheckOptions{Workers: 1, EarlyCancel: true})
	sum := res.Summaries[0]
	if sum.False == 0 || sum.StrongHolds || sum.WeakHolds {
		t.Fatalf("summary: %+v", sum)
	}
	if sum.Evaluated >= r.Len() {
		t.Errorf("early cancel did not skip work: evaluated %d of %d", sum.Evaluated, r.Len())
	}
	if sum.FirstFalse != 0 {
		t.Errorf("FirstFalse = %d, want 0 (workers=1 scans in order)", sum.FirstFalse)
	}
}

func TestCheckAllErrorPropagates(t *testing.T) {
	s := engineScheme()
	r := relation.New(s)
	r.MustInsertRow("v1", "!", "v1") // nothing on B poisons A->B evaluation
	r.MustInsertRow("v1", "v2", "v1")
	fds := fd.MustParseSet(s, "A -> B; A -> C")
	for _, engine := range []Engine{EngineNaive, EngineIndexed} {
		res := CheckAll(fds, r, CheckOptions{Engine: engine})
		if res.Summaries[0].Err == nil || !strings.Contains(res.Summaries[0].Err.Error(), "inconsistent element") {
			t.Errorf("%v: A->B should error, got %+v", engine, res.Summaries[0])
		}
		if res.Summaries[0].StrongHolds || res.Summaries[0].WeakHolds {
			t.Errorf("%v: an errored FD must not report holding", engine)
		}
		// The healthy FD is unaffected by its sibling's error.
		if res.Summaries[1].Err != nil || !res.Summaries[1].StrongHolds {
			t.Errorf("%v: A->C summary: %+v", engine, res.Summaries[1])
		}
		if res.Err() == nil {
			t.Errorf("%v: batch Err() must surface the FD error", engine)
		}
	}
}

// TestCheckAllCompletionLimitPrecedesEnumeration: an instance is declined
// for its size before any completion is built, not after. 160 rows with
// twenty binary nulls have exactly CompletionLimit completions — each a
// whole 160-row relation — and must be refused at once; six rows with four
// are enumerated as before.
func TestCheckAllCompletionLimitPrecedesEnumeration(t *testing.T) {
	s := schema.MustNew("R", []string{"A", "B"},
		[]*schema.Domain{schema.IntDomain("a", "v", 160), schema.IntDomain("b", "w", 2)})
	fds := fd.MustParseSet(s, "A -> B")
	instance := func(rows, nulls int) *relation.Relation {
		r := relation.New(s)
		for i := 1; i <= rows; i++ {
			b := "w1"
			if i <= nulls {
				b = "-"
			}
			r.MustInsertRow("v"+strconv.Itoa(i), b)
		}
		return r
	}
	start := time.Now()
	res := CheckAll(fds, instance(160, 20), CheckOptions{})
	if err := res.Err(); !errors.Is(err, relation.ErrTooManyCompletions) {
		t.Fatalf("160 rows, 20 binary nulls: err = %v, want ErrTooManyCompletions", err)
	}
	if d := time.Since(start); d > time.Second {
		t.Errorf("the refusal took %v; it must precede the enumeration", d)
	}
	res = CheckAll(fds, instance(6, 4), CheckOptions{})
	if err := res.Err(); err != nil || res.Summaries[0].Evaluated != 6 || !res.AllStrong {
		t.Errorf("6 rows, 4 binary nulls: err = %v, summary %+v", err, res.Summaries[0])
	}
}

func TestCheckAllDegenerateShapes(t *testing.T) {
	s := engineScheme()
	empty := relation.New(s)
	fds := fd.MustParseSet(s, "A -> B")
	res := CheckAll(fds, empty, CheckOptions{})
	if !res.AllStrong || !res.AllWeak || !res.Summaries[0].StrongHolds {
		t.Errorf("empty relation: every FD holds vacuously: %+v", res)
	}
	res = CheckAll(nil, empty, CheckOptions{Workers: 3})
	if len(res.Summaries) != 0 || !res.AllStrong {
		t.Errorf("no FDs: %+v", res)
	}
}

// TestEvaluateWithMatchesEvaluate: the indexed per-tuple evaluator
// returns Evaluate's verdict on a tuple with a null on the right-hand side.
func TestEvaluateWithMatchesEvaluate(t *testing.T) {
	s := engineScheme()
	r := relation.MustFromRows(s,
		[]string{"v1", "v2", "-"},
		[]string{"v1", "v2", "v3"},
	)
	f := fd.MustParse(s, "A -> C")
	want, err := Evaluate(f, r, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := newChecker(f, r).evaluate(0); err != nil || got != want {
		t.Errorf("the indexed evaluator = %v, %v; want %v", got, err, want)
	}
}

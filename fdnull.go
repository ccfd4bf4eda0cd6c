// Package fdnull is a library for functional dependencies over relations
// with incomplete information, reproducing Yannis Vassiliou's
// "Functional Dependencies and Incomplete Information" (VLDB 1980).
//
// The package re-exports the stable surface of the internal modules:
//
//   - values, schemes, and relation instances with marked nulls
//     (internal/value, internal/schema, internal/relation);
//   - classical FD theory — closure, implication, covers, keys, Armstrong
//     derivations (internal/fd);
//   - the paper's three-valued FD interpretation over nulls, Proposition 1
//     classification, and strong/weak satisfiability (internal/eval);
//     CheckAll is the indexed, batched, parallel engine that probes
//     X-partition indexes (internal/relation) instead of re-scanning the
//     relation;
//   - the NS-rule chase with null-equality constraints, minimally
//     incomplete instances, and Theorem 4's Church–Rosser extended system
//     (internal/chase);
//   - the TEST-FDs algorithm under the strong and weak conventions of
//     Theorems 2 and 3 (internal/testfds);
//   - FD discovery under both conventions (internal/discover), a
//     parallel lattice search over null-aware stripped partitions
//     (internal/partition);
//   - System C, the modal logic the paper reduces FDs to (internal/systemc);
//   - normalization: BCNF, 3NF synthesis, lossless joins, and null-padded
//     universal-relation reassembly (internal/normalize, internal/tableau);
//   - plain-text parsing/printing and synthetic workloads (internal/relio,
//     internal/workload).
//
// # Quick start
//
//	dom := fdnull.IntDomain("emp", "e", 100)
//	s := fdnull.UniformScheme("R", []string{"A", "B", "C"}, dom)
//	r := fdnull.NewRelation(s)
//	_ = r.InsertRow("e1", "e2", "-") // "-" is a null
//	fds := fdnull.MustParseFDs(s, "A -> B; B -> C")
//	ok, _, _ := fdnull.WeaklySatisfiable(r, fds)
//
// See the examples/ directory for complete programs.
package fdnull

import (
	"io"

	"fdnull/internal/chase"
	"fdnull/internal/eval"
	"fdnull/internal/fd"
	"fdnull/internal/relation"
	"fdnull/internal/relio"
	"fdnull/internal/schema"
	"fdnull/internal/systemc"
	"fdnull/internal/tableau"
	"fdnull/internal/testfds"
	"fdnull/internal/tvl"
	"fdnull/internal/value"
)

// ---- Values and truth ----

// Value is a database value: a constant, a marked null, or the
// inconsistent element `nothing`.
type Value = value.V

// Truth is a three-valued truth value: True, False, or Unknown.
type Truth = tvl.T

// The three truth values of the paper's semantics.
const (
	False   = tvl.False
	Unknown = tvl.Unknown
	True    = tvl.True
)

// Const returns the constant value c.
func Const(c string) Value { return value.NewConst(c) }

// NullValue returns the marked null ⊥mark.
func NullValue(mark int) Value { return value.NewNull(mark) }

// Nothing returns the inconsistent element.
func Nothing() Value { return value.NewNothing() }

// ---- Schemes ----

// Scheme is a relation scheme: named attributes over finite domains.
type Scheme = schema.Scheme

// Domain is a finite, enumerable attribute domain.
type Domain = schema.Domain

// Attr identifies an attribute by position.
type Attr = schema.Attr

// AttrSet is a set of attributes.
type AttrSet = schema.AttrSet

// NewDomain builds a finite domain from distinct values.
func NewDomain(name string, values ...string) (*Domain, error) {
	return schema.NewDomain(name, values...)
}

// IntDomain builds the domain {prefix1 … prefixN}; membership is computed.
func IntDomain(name, prefix string, n int) *Domain {
	return schema.IntDomain(name, prefix, n)
}

// NewScheme builds a scheme from parallel attribute and domain lists.
func NewScheme(name string, attrs []string, domains []*Domain) (*Scheme, error) {
	return schema.New(name, attrs, domains)
}

// UniformScheme builds a scheme whose attributes share one domain.
func UniformScheme(name string, attrs []string, dom *Domain) *Scheme {
	return schema.Uniform(name, attrs, dom)
}

// ---- Relations ----

// Relation is an instance of a scheme; cells may hold nulls.
type Relation = relation.Relation

// Tuple is one row of a relation.
type Tuple = relation.Tuple

// NewRelation creates an empty instance of s.
func NewRelation(s *Scheme) *Relation { return relation.New(s) }

// FromRows builds an instance from rows of cell strings ("-" fresh null,
// "-k" marked null, "!" nothing, anything else a constant).
func FromRows(s *Scheme, rows ...[]string) (*Relation, error) {
	return relation.FromRows(s, rows...)
}

// MustFromRows is FromRows for statically known-good inputs.
func MustFromRows(s *Scheme, rows ...[]string) *Relation {
	return relation.MustFromRows(s, rows...)
}

// Completions enumerates AP(t, set): every substitution of domain
// constants for the tuple's nulls on the given attributes (Section 4).
func Completions(s *Scheme, t Tuple, set AttrSet) ([]Tuple, error) {
	return relation.TupleCompletions(s, t, set)
}

// Index is an X-partition index: a hash partition of a relation's tuples
// by their constant projection on an attribute set, with sidecar lists for
// tuples that have nulls (or the inconsistent element) there. It is what
// the indexed evaluation engine probes instead of scanning the relation.
type Index = relation.Index

// IndexOn returns r's index on set, building and caching it on first use;
// mutations of r invalidate the cache automatically.
func IndexOn(r *Relation, set AttrSet) *Index { return r.IndexOn(set) }

// BuildIndex partitions r's tuples by their projection on set without
// touching r's index cache.
func BuildIndex(r *Relation, set AttrSet) *Index { return relation.BuildIndex(r, set) }

// ---- Functional dependencies ----

// FD is a functional dependency X → Y.
type FD = fd.FD

// NewFD constructs X → Y.
func NewFD(x, y AttrSet) FD { return fd.New(x, y) }

// ParseFD parses "A,B -> C" against a scheme.
func ParseFD(s *Scheme, str string) (FD, error) { return fd.Parse(s, str) }

// MustParseFD is ParseFD for statically known-good inputs.
func MustParseFD(s *Scheme, str string) FD { return fd.MustParse(s, str) }

// ParseFDs parses a semicolon-separated FD list.
func ParseFDs(s *Scheme, str string) ([]FD, error) { return fd.ParseSet(s, str) }

// MustParseFDs is ParseFDs for statically known-good inputs.
func MustParseFDs(s *Scheme, str string) []FD { return fd.MustParseSet(s, str) }

// FormatFDs renders an FD list with the scheme's attribute names.
func FormatFDs(s *Scheme, fds []FD) string { return fd.FormatSet(s, fds) }

// Closure computes the attribute closure X⁺ under F.
func Closure(x AttrSet, fds []FD) AttrSet { return fd.Closure(x, fds) }

// Implies reports F ⊨ f. By Theorem 1 this coincides with semantic
// implication over relations with nulls under strong satisfiability.
func Implies(fds []FD, f FD) bool { return fd.Implies(fds, f) }

// MinimalCover returns a canonical cover of F.
func MinimalCover(fds []FD) []FD { return fd.MinimalCover(fds) }

// CandidateKeys enumerates the minimal keys of the scheme under F.
func CandidateKeys(all AttrSet, fds []FD) []AttrSet {
	return fd.CandidateKeys(all, fds)
}

// Derivation is an Armstrong-rule proof with a checkable step list.
type Derivation = fd.Derivation

// Derive constructs an Armstrong derivation of f from fds, or reports
// that f is not implied.
func Derive(fds []FD, f FD) (*Derivation, bool) { return fd.Derive(fds, f) }

// ---- Evaluation over nulls (Section 4) ----

// Verdict is the three-valued outcome of evaluating one FD on one tuple,
// labeled with the Proposition 1 case that fired.
type Verdict = eval.Verdict

// Case labels Proposition 1's conditions (T1, T2, T3, F1, F2, U).
type Case = eval.Case

// The Proposition 1 case labels.
const (
	CaseT1      = eval.CaseT1
	CaseT2      = eval.CaseT2
	CaseT3      = eval.CaseT3
	CaseF1      = eval.CaseF1
	CaseF2      = eval.CaseF2
	CaseUnknown = eval.CaseUnknown
)

// Evaluate computes f(t, r) for the tuple at index ti, using Proposition
// 1's polynomial classification where applicable.
func Evaluate(f FD, r *Relation, ti int) (Verdict, error) {
	return eval.Evaluate(f, r, ti)
}

// EvaluateByDefinition computes f(t, r) by the exponential least-extension
// definition (ground truth; small instances only).
func EvaluateByDefinition(f FD, r *Relation, ti int) (Truth, error) {
	return eval.Value(f, r, ti)
}

// StrongHolds reports whether f(t,r) = true for every tuple.
func StrongHolds(f FD, r *Relation) (bool, error) { return eval.StrongHolds(f, r) }

// WeakHolds reports whether f(t,r) ≠ false for every tuple.
func WeakHolds(f FD, r *Relation) (bool, error) { return eval.WeakHolds(f, r) }

// StrongSatisfied reports whether every FD of F strongly holds in r.
func StrongSatisfied(fds []FD, r *Relation) (bool, error) {
	return eval.StrongSatisfied(fds, r)
}

// WeakSatisfiedByDefinition decides set-level weak satisfiability by
// enumerating completions (exponential ground truth). Use
// WeaklySatisfiable for the polynomial chase-based decision.
func WeakSatisfiedByDefinition(fds []FD, r *Relation) (bool, error) {
	return eval.WeakSatisfied(fds, r)
}

// Report evaluates every (FD, tuple) pair.
func Report(fds []FD, r *Relation) ([][]Verdict, error) { return eval.Report(fds, r) }

// ---- The batched, parallel evaluation engine ----

// CheckOptions configures a CheckAll run (worker count, early
// cancellation, verdict matrix retention).
type CheckOptions = eval.CheckOptions

// FDSummary is the per-FD outcome of a CheckAll run: verdict counts and
// the strong/weak holding of the FD.
type FDSummary = eval.FDSummary

// BatchResult is the outcome of a CheckAll run.
type BatchResult = eval.BatchResult

// CheckAll evaluates every (FD, tuple) pair over a bounded worker pool and
// returns per-FD verdict summaries; see eval.CheckAll.
func CheckAll(fds []FD, r *Relation, opts CheckOptions) *BatchResult {
	return eval.CheckAll(fds, r, opts)
}

// ---- The chase (Section 6) ----

// ChaseOptions configures a chase run: the rule system (Mode), the FD
// order (RuleOrder) and a pass bound. The extended system always runs on
// congruence closure, since its normal form is unique (Theorem 4); there
// is no engine to choose.
type ChaseOptions = chase.Options

// ChaseResult reports a chase fixpoint: the resolved instance, surviving
// NEC classes, consistency, and work counters.
type ChaseResult = chase.Result

// The chase modes: Extended (the zero value) is the Church–Rosser
// system of Theorem 4; Plain is Definition 2 alone, whose result depends
// on ChaseOptions.RuleOrder (Figure 5).
const (
	Extended = chase.Extended
	Plain    = chase.Plain
)

// Chase runs the NS-rules to fixpoint; the zero ChaseOptions compute the
// extended normal form.
func Chase(r *Relation, fds []FD, opts ChaseOptions) (*ChaseResult, error) {
	return chase.Run(r, fds, opts)
}

// WeaklySatisfiable decides weak satisfiability through Theorem 4(b):
// extended chase, then test for `nothing`. Assumes the paper's
// sufficiently-large-domain condition; see the chase package docs.
func WeaklySatisfiable(r *Relation, fds []FD) (bool, *ChaseResult, error) {
	return chase.WeaklySatisfiable(r, fds)
}

// MinimallyIncomplete reports whether no NS-rule applies to r.
func MinimallyIncomplete(r *Relation, fds []FD) (bool, error) {
	return chase.MinimallyIncomplete(r, fds, chase.Extended)
}

// ---- TEST-FDs (Figure 3, Theorems 2 and 3) ----

// Convention selects the null-comparison rules of TEST-FDs.
type Convention = testfds.Convention

// Algorithm selects the TEST-FDs implementation.
type Algorithm = testfds.Algorithm

// TestViolation is the witness pair returned on a "no" answer.
type TestViolation = testfds.Violation

// TEST-FDs conventions and algorithms.
const (
	StrongConvention = testfds.Strong
	WeakConvention   = testfds.Weak
	SortedScan       = testfds.Sorted
	BucketScan       = testfds.Bucket
	PairwiseScan     = testfds.Pairwise
)

// TestFDs runs the TEST-FDs algorithm.
func TestFDs(r *Relation, fds []FD, conv Convention, algo Algorithm) (bool, *TestViolation) {
	return testfds.Check(r, fds, conv, algo)
}

// TestStrong decides strong satisfiability via TEST-FDs (Theorem 2).
func TestStrong(r *Relation, fds []FD) (bool, *TestViolation) {
	return testfds.StrongSatisfied(r, fds)
}

// TestWeak decides weak satisfiability of a minimally incomplete instance
// via TEST-FDs (Theorem 3); compose with Chase for arbitrary instances.
func TestWeak(r *Relation, fds []FD) (bool, *TestViolation) {
	return testfds.WeakSatisfiedMinimallyIncomplete(r, fds)
}

// ---- System C (Section 5) ----

// Wff is a System C formula.
type Wff = systemc.Wff

// Assignment maps propositional variables to truth values.
type Assignment = systemc.Assignment

// Impl is an implicational statement X ⇒ Y.
type Impl = systemc.Impl

// The System C formula constructors: propositional variables, the
// classical connectives, and the modal operator ∇ ("necessarily true").
type (
	// CVar is a propositional variable.
	CVar = systemc.Var
	// CNot is negation (evaluation rule 3).
	CNot = systemc.Not
	// CAnd is conjunction (evaluation rule 4).
	CAnd = systemc.And
	// COr is disjunction (evaluation rule 4).
	COr = systemc.Or
	// CNec is the modal operator ∇ (evaluation rule 5).
	CNec = systemc.Nec
)

// CImplies builds the defined connective P ⇒ Q := ¬P ∨ Q.
func CImplies(p, q Wff) Wff { return systemc.Implies(p, q) }

// FormatAssignment renders an assignment deterministically.
func FormatAssignment(a Assignment) string { return systemc.FormatAssignment(a) }

// AssignmentFromPair reads a two-tuple relation as a three-valued
// assignment per Lemma 3: equal constants ⇒ true, distinct ⇒ false, any
// null ⇒ unknown.
func AssignmentFromPair(s *Scheme, t, u Tuple) Assignment {
	return systemc.AssignmentFromPair(s, t, u)
}

// EvalC is System C's evaluation scheme V.
func EvalC(w Wff, a Assignment) Truth { return systemc.Eval(w, a) }

// CTautology reports whether w is a C-tautology (equivalently, by
// Bertram's theorem, a C-theorem).
func CTautology(w Wff) bool { return systemc.CTautology(w) }

// Infers reports System C logical inference of f from F.
func Infers(F []Impl, f Impl) bool { return systemc.Infers(F, f) }

// WeakInfers reports the paper's weak logical inference.
func WeakInfers(F []Impl, f Impl) bool { return systemc.WeakInfers(F, f) }

// ImplFromFD translates an FD into its implicational statement.
func ImplFromFD(s *Scheme, f FD) Impl { return systemc.ImplFromFD(s, f) }

// ---- Normalization ----

// Lossless reports whether a decomposition has a lossless join under fds,
// via the tableau chase.
func Lossless(all AttrSet, comps []AttrSet, fds []FD) (bool, error) {
	return normalizeLossless(all, comps, fds)
}

// TableauLossless exposes the raw tableau test over dense columns.
func TableauLossless(p int, comps []AttrSet, fds []FD) (bool, error) {
	return tableau.Lossless(p, comps, fds)
}

// ---- Text IO ----

// File is a parsed relation/FD input file.
type File = relio.File

// ParseFile reads the plain-text relation format.
func ParseFile(r io.Reader) (*File, error) { return relio.Parse(r) }

// WriteFile renders a File in the plain-text format.
func WriteFile(w io.Writer, f *File) error { return relio.Write(w, f) }

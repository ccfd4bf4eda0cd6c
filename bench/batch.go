package main

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"time"

	"fdnull/internal/chase"
	"fdnull/internal/discover"
	"fdnull/internal/eval"
	"fdnull/internal/query"
	"fdnull/internal/relation"
	"fdnull/internal/relio"
	"fdnull/internal/testfds"
	"fdnull/internal/workload"
)

// batch-analyze runs no daemon and no store: it is the library path the
// CLIs run, one caller goroutine analysing relio files from a corpus.
// The corpus has four sizes, four files each; a block of 193 ops holds
// 120 / 50 / 20 / 3 of them, shuffled by the seed, so any stretch of the
// stream has the same size mix: p50 lands in the smallest class (parse,
// index and evaluation overheads), p99 in the largest, where the chase
// dominates and is quadratic. The largest class is 1.55 % of the ops, so
// p99 is about its 36th percentile: among the three files of similar
// cost, below the one slow file, and in the part of the class's
// distribution that a stall of the host during some of these 75 ms ops
// inflates least.
//
// Of each size's four files, one is complete and three have nulls in a
// fifth of their salary and contract cells. Per-tuple verdicts exist
// only for the complete one: with more than one incomplete tuple
// CheckAll runs into the definition's exponential completion set and
// reports the verdicts unavailable, exactly as fdcheck prints it. Both
// outcomes are part of the digest.
var (
	batchSizes  = [4]int{200, 400, 1000, 2500}
	batchShares = [4]int{120, 50, 20, 3}
)

const (
	batchFilesPerSize = 4
	batchNullDensity  = 0.2
	batchPreds        = 24
)

// digest is everything one analysis pass concluded. A pass is correct
// when its digest equals the one the reference engines computed for the
// file at set-up.
type digest struct {
	Rows        int
	Verdicts    bool // per-tuple verdicts available (see above)
	AllStrong   bool
	AllWeak     bool
	Weak        bool
	Strong      bool
	Consistent  bool
	ChaseNulls  int // null cells left in the chased instance
	Cover       []string
	SureCounts  [batchPreds]int
	MaybeCounts [batchPreds]int
}

// analysis is what a pass leaves behind: the parsed file, its relation
// carrying the indexes the stages built, and the chase's normal form.
type analysis struct {
	file  *relio.File
	chase *chase.Result
}

type batchFile struct {
	n     int
	data  []byte
	preds []string
	want  digest
	last  *analysis // kept resident: an open file in an analyst's session
}

type corpus struct {
	files [4][]batchFile // by size class
}

// predTexts builds the 24 selections run on every file of size n: point
// and group lookups, conjunctions, disjunctions, negations and IN lists
// over the Employees scheme (E#, SL, D#, CT).
func predTexts(rng *rand.Rand, n, depts int) []string {
	out := make([]string, 0, batchPreds)
	e := func() int { return 1 + rng.Intn(n) }
	d := func() int { return 1 + rng.Intn(depts) }
	ct := func() string { return [2]string{"full", "part"}[rng.Intn(2)] }
	for len(out) < batchPreds {
		switch len(out) % 6 {
		case 0:
			out = append(out, fmt.Sprintf("E# = e%d", e()))
		case 1:
			out = append(out, fmt.Sprintf("D# = d%d", d()))
		case 2:
			out = append(out, fmt.Sprintf("D# = d%d and CT = %s", d(), ct()))
		case 3:
			out = append(out, fmt.Sprintf("SL = s%d or E# = e%d", e(), e()))
		case 4:
			out = append(out, fmt.Sprintf("D# = d%d and not CT = %s", d(), ct()))
		case 5:
			out = append(out, fmt.Sprintf("E# in (e%d, e%d, e%d) or D# = d%d", e(), e(), e(), d()))
		}
	}
	return out
}

// buildCorpus generates the sixteen files and, with the reference
// engines (naive evaluation and discovery, scan selection), the digest
// every later pass over a file must reproduce. The corpus is the same
// for every seed — the seed decides the order the files are analysed
// in — so two runs differ in their input sequence but not in how hard
// their inputs are.
func buildCorpus(scale float64) (*corpus, error) {
	rng := rand.New(rand.NewSource(1980))
	c := &corpus{}
	for cls, size := range batchSizes {
		// The floor keeps small-scale corpora out of a trap: with about
		// twenty null contracts in a file, the completion set of D# -> CT
		// is just under the enumeration limit and CheckAll grinds through
		// a million completions per tuple instead of declining at once.
		n := scaled(size, scale, 160)
		depts := n / 20
		for i := 0; i < batchFilesPerSize; i++ {
			density := batchNullDensity
			if i == 0 {
				density = 0
			}
			s, fds, r := workload.Employees(n, depts, density, rng.Int63())
			var buf bytes.Buffer
			if err := relio.Write(&buf, &relio.File{Scheme: s, FDs: fds, Relation: r}); err != nil {
				return nil, err
			}
			f := batchFile{n: n, data: buf.Bytes(), preds: predTexts(rng, n, depts)}
			want, _, err := analyze(&f, nil, true)
			if err != nil {
				return nil, fmt.Errorf("corpus file n=%d #%d: %w", n, i, err)
			}
			f.want = want
			c.files[cls] = append(c.files[cls], f)
		}
	}
	return c, nil
}

// analyze is one op: parse the file, then run every analysis the CLIs
// offer on the freshly parsed relation. With reference set it uses the
// reference engines instead of the production ones (set-up only). rec,
// when non-nil, gets a root pass span with one child per stage.
func analyze(f *batchFile, rec *recorder, reference bool) (digest, *analysis, error) {
	var dg digest
	evalEngine, discEngine, queryEngine := eval.EngineIndexed, discover.EnginePartition, query.EngineIndexed
	if reference {
		evalEngine, discEngine, queryEngine = eval.EngineNaive, discover.EngineNaive, query.EngineNaive
	}
	root := rec.begin("pass")
	defer rec.end(root)

	id := rec.begin("relio.parse")
	file, err := relio.Parse(bytes.NewReader(f.data))
	rec.end(id)
	if err != nil {
		return dg, nil, err
	}
	r, fds := file.Relation, file.FDs
	dg.Rows = r.Len()

	id = rec.begin("eval.checkall")
	res := eval.CheckAll(fds, r, eval.CheckOptions{Engine: evalEngine})
	rec.end(id)
	switch err := res.Err(); {
	case err == nil:
		dg.Verdicts, dg.AllStrong, dg.AllWeak = true, res.AllStrong, res.AllWeak
	case !errors.Is(err, relation.ErrTooManyCompletions):
		return dg, nil, err
	}

	id = rec.begin("testfds.weak")
	dg.Weak, _ = testfds.WeakSatisfiedMinimallyIncomplete(r, fds)
	rec.end(id)
	id = rec.begin("testfds.strong")
	dg.Strong, _ = testfds.StrongSatisfied(r, fds)
	rec.end(id)

	id = rec.begin("chase.run")
	ch, err := chase.Run(r, fds, chase.Options{})
	rec.end(id)
	if err != nil {
		return dg, nil, err
	}
	dg.Consistent = ch.Consistent
	for _, t := range ch.Relation.Tuples() {
		for _, v := range t {
			if v.IsNull() {
				dg.ChaseNulls++
			}
		}
	}

	id = rec.begin("discover.run")
	cover, err := discover.Cover(r, discover.Options{MaxLHS: 2, Engine: discEngine})
	rec.end(id)
	if err != nil {
		return dg, nil, err
	}
	for _, c := range cover {
		dg.Cover = append(dg.Cover, c.Format(file.Scheme))
	}

	id = rec.begin("query.selectall")
	preds := make([]query.Pred, len(f.preds))
	for i, text := range f.preds {
		if preds[i], err = query.ParsePred(file.Scheme, text); err != nil {
			rec.end(id)
			return dg, nil, err
		}
	}
	results := query.SelectAll(r, preds, query.Options{Engine: queryEngine})
	rec.end(id)
	for i, sel := range results {
		dg.SureCounts[i], dg.MaybeCounts[i] = len(sel.Sure), len(sel.Maybe)
	}
	return dg, &analysis{file: file, chase: ch}, nil
}

// batchStream yields size classes in seed-shuffled blocks of 193, and
// within a class its files in turn, so the shares of sizes and of
// complete files are the same in every run.
type batchStream struct {
	rng   *rand.Rand
	block []uint8
	pos   int
	turn  [4]int
}

func newBatchStream(seed int64) *batchStream {
	s := &batchStream{rng: streamRNG(seed)}
	for cls, share := range batchShares {
		for i := 0; i < share; i++ {
			s.block = append(s.block, uint8(cls))
		}
	}
	s.pos = len(s.block)
	for cls := range s.turn {
		s.turn[cls] = s.rng.Intn(batchFilesPerSize)
	}
	return s
}

// next returns the size class and the file index within it.
func (s *batchStream) next() (cls, file int) {
	if s.pos == len(s.block) {
		s.rng.Shuffle(len(s.block), func(i, j int) { s.block[i], s.block[j] = s.block[j], s.block[i] })
		s.pos = 0
	}
	cls = int(s.block[s.pos])
	s.pos++
	s.turn[cls]++
	return cls, s.turn[cls] % batchFilesPerSize
}

// batchInstance is a set-up batch workload: the corpus built, every
// file analysed once so lazy initialisation is behind it and every file
// has its latest analysis resident.
type batchInstance struct {
	corpus *corpus
	stream *batchStream
}

func setUpBatch(seed int64, scale float64) (*batchInstance, error) {
	c, err := buildCorpus(scale)
	if err != nil {
		return nil, err
	}
	in := &batchInstance{corpus: c, stream: newBatchStream(seed)}
	for cls := range c.files {
		for i := range c.files[cls] {
			if err := in.op(cls, i, nil); err != nil {
				return nil, fmt.Errorf("warm-up: %w", err)
			}
		}
	}
	runtime.GC()
	return in, nil
}

// op analyses one file with the production engines, checks the result
// against the file's reference digest, and keeps the analysis as the
// file's resident one.
func (in *batchInstance) op(cls, file int, rec *recorder) error {
	f := &in.corpus.files[cls][file]
	got, an, err := analyze(f, rec, false)
	if err != nil {
		return err
	}
	if !reflect.DeepEqual(got, f.want) {
		return fmt.Errorf("file n=%d #%d: analysis %+v differs from the reference engines' %+v", f.n, file, got, f.want)
	}
	f.last = an
	return nil
}

// measure analyses files from the stream for d. The live heap is the
// corpus with the latest analysis of each of its sixteen files.
func (in *batchInstance) measure(d time.Duration) (*window, error) {
	start := time.Now()
	sm := newSampler(start, d, 1<<16)
	for begin := start; begin.Before(sm.deadline()); {
		cls, file := in.stream.next()
		if err := in.op(cls, file, nil); err != nil {
			return nil, err
		}
		end := time.Now()
		sm.add(begin, end)
		begin = end
	}
	elapsed := time.Since(start)
	heap := liveHeapMB(4 * cap(sm.lat))
	runtime.KeepAlive(in)
	w := summarize(sm, elapsed)
	w.heapMB = heap
	return w, nil
}

package store

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"fdnull/internal/query"
	"fdnull/internal/relation"
	"fdnull/internal/value"
)

// TestConcurrentBeginTxnRace is the -race stress regression for the
// begin path: many goroutines run Begin and View — which hold only the
// store's READ lock, so any shared-state mutation on that path
// (fresh-mark allocator, cached indexes, COW bookkeeping) would race
// with the other concurrent Begins — interleaved with committing
// writers, snapshot readers, and queries.
func TestConcurrentBeginTxnRace(t *testing.T) {
	c, s, _ := concurrentFixture()
	for i := 0; i < 8; i++ {
		row := []string{fmt.Sprintf("e%d", i+1), fmt.Sprintf("s%d", i%5+1), fmt.Sprintf("d%d", i%3+1), fmt.Sprintf("ct%d", i%3+1)}
		if err := c.InsertRow(row...); err != nil {
			t.Fatalf("seed insert: %v", err)
		}
	}
	p, err := query.ParsePred(s, "D# = d1")
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	const (
		goroutines = 8
		iters      = 60
	)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				tx := c.Begin()
				snap := c.View()
				_ = snap.Len()
				switch (g + i) % 4 {
				case 0:
					// Stage through the row parser (commit-time fresh-mark
					// allocation) and try to commit.
					if err := tx.InsertRow(fmt.Sprintf("e%d", 9+(g*iters+i)%30), "-", fmt.Sprintf("d%d", i%3+1), "-"); err != nil {
						t.Errorf("stage: %v", err)
						tx.Rollback()
						continue
					}
					err := tx.Commit()
					if err != nil && !errors.Is(err, ErrTxnConflict) && !errors.Is(err, ErrInconsistent) {
						// Duplicate staged rows are a structural rejection;
						// anything else is unexpected.
						var terr *TxnError
						if !errors.As(err, &terr) {
							t.Errorf("commit: %v", err)
						}
					}
				case 1:
					// Pure reader transaction: query the begin-time snapshot,
					// then walk away.
					_ = query.Select(snap, p)
					tx.Rollback()
				case 2:
					// Stage an explicit tuple carrying a mark drawn under the
					// write lock, then roll back (no committed effect).
					m := c.FreshNull()
					tup := relation.Tuple{value.NewConst(fmt.Sprintf("e%d", g+1)), m, value.NewConst("d1"), m}
					if err := tx.Insert(tup); err != nil {
						t.Errorf("stage tuple: %v", err)
					}
					tx.Rollback()
				default:
					// Interleave the read surface.
					_ = c.Len()
					_ = c.Version()
					_, _, _, _ = c.Stats()
					_ = c.CheckWeak()
					tx.Rollback()
				}
			}
		}()
	}
	wg.Wait()
	if !c.CheckWeak() {
		t.Fatalf("store left weakly unsatisfiable")
	}
}

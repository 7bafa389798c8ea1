package core

import (
	"context"
	"sync/atomic"
	"testing"
)

// TestSplitWorkersEdges pins the budget-splitting contract at its
// corners: outer*inner never exceeds the total budget, both levels are
// at least 1, and degenerate budgets (0, negative, 1) and degenerate
// grids (0 cells, more cells than budget) stay sane.
func TestSplitWorkersEdges(t *testing.T) {
	cases := []struct {
		total, n             int
		wantOuter, wantInner int
	}{
		{0, 5, 1, 1},  // zero CPU budget degrades to sequential
		{-3, 5, 1, 1}, // negative budget likewise
		{1, 5, 1, 1},  // one CPU: no parallelism anywhere
		{1, 0, 1, 1},  // one CPU, empty grid
		{8, 0, 1, 8},  // empty grid: all budget to the (vacuous) inner level
		{8, 1, 1, 8},  // one cell: all budget inside it
		{8, 4, 4, 2},  // even split
		{8, 3, 3, 2},  // uneven: inner gets the floor, never oversubscribes
		{4, 16, 4, 1}, // more cells than budget: inner sequential
		{3, 2, 2, 1},  // budget not divisible by outer
	}
	for _, c := range cases {
		outer, inner := SplitWorkers(c.total, c.n)
		if outer != c.wantOuter || inner != c.wantInner {
			t.Errorf("SplitWorkers(%d, %d) = (%d, %d), want (%d, %d)",
				c.total, c.n, outer, inner, c.wantOuter, c.wantInner)
		}
		if outer < 1 || inner < 1 {
			t.Errorf("SplitWorkers(%d, %d) = (%d, %d): a level below 1", c.total, c.n, outer, inner)
		}
		if budget := max(c.total, 1); outer*inner > budget {
			t.Errorf("SplitWorkers(%d, %d) = (%d, %d): oversubscribes %d CPUs", c.total, c.n, outer, inner, budget)
		}
	}
}

// TestForEachEdges covers the fan-out primitive where it degenerates:
// zero items, one item, non-positive worker counts, and more workers
// than items must all invoke fn exactly once per index.
func TestForEachEdges(t *testing.T) {
	for _, workers := range []int{-1, 0, 1, 2, 7} {
		for _, n := range []int{0, 1, 3, 8} {
			var calls atomic.Int64
			seen := make([]atomic.Bool, max(n, 1))
			err := ForEachCtx(context.Background(), n, workers, func(i int) {
				calls.Add(1)
				if seen[i].Swap(true) {
					t.Errorf("workers=%d n=%d: index %d visited twice", workers, n, i)
				}
			})
			if err != nil {
				t.Errorf("workers=%d n=%d: err %v", workers, n, err)
			}
			if int(calls.Load()) != n {
				t.Errorf("workers=%d n=%d: fn called %d times", workers, n, calls.Load())
			}
		}
	}
}

package core

import (
	"context"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
)

// DefaultWorkers is the evaluation concurrency used when a Planner (or
// an experiment grid) does not specify one: every available CPU.
func DefaultWorkers() int { return runtime.GOMAXPROCS(0) }

// ForEachCtx invokes fn(0..n-1), fanning the indices across at most
// workers goroutines. With workers <= 1 (or n <= 1) it degenerates to a
// plain sequential loop with no goroutine or allocation overhead. fn
// must be safe for concurrent use; callers make results deterministic
// by writing them into index i of a pre-sized slice and merging after
// ForEachCtx returns. It is the fan-out primitive behind the parallel
// planner and the experiment grids.
//
// Cancellation is cooperative: once ctx is done no further index is
// dispatched (indices already running finish their fn call) and the
// context's error is returned. A nil ctx — and a ctx that never fires —
// runs every index and returns nil, so threading a context through a
// fan-out changes no result.
func ForEachCtx(ctx context.Context, n, workers int, fn func(i int)) error {
	forEach(ctx, n, workers, fn)
	if ctx == nil {
		return nil
	}
	return ctx.Err()
}

func forEach(ctx context.Context, n, workers int, fn func(i int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if ctx != nil && ctx.Err() != nil {
				return
			}
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				if ctx != nil && ctx.Err() != nil {
					return
				}
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// SplitWorkers divides a CPU budget between an outer grid of n
// concurrent tasks and the parallelism available inside each task, so
// nested fan-outs (grid cells that each run a parallel planner) do not
// oversubscribe the machine: outer*inner never exceeds total. With more
// grid cells than budget the inner level runs sequentially.
func SplitWorkers(total, n int) (outer, inner int) {
	if total < 1 {
		total = 1
	}
	if n < 1 {
		n = 1
	}
	outer = total
	if outer > n {
		outer = n
	}
	inner = total / outer
	if inner < 1 {
		inner = 1
	}
	return outer, inner
}

// incumbent is an atomically shared upper bound on the best cost found
// so far, used to skip speculative evaluations whose preliminary cost
// already cannot win. It only ever decreases.
type incumbent struct {
	bits atomic.Uint64
}

func newIncumbent(v float64) *incumbent {
	inc := &incumbent{}
	inc.bits.Store(math.Float64bits(v))
	return inc
}

func (inc *incumbent) load() float64 {
	return math.Float64frombits(inc.bits.Load())
}

// lower tightens the bound to v if v is smaller.
func (inc *incumbent) lower(v float64) {
	for {
		old := inc.bits.Load()
		if v >= math.Float64frombits(old) {
			return
		}
		if inc.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

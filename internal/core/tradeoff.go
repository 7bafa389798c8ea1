package core

import (
	"context"
	"fmt"
	"slices"

	"mixsoc/internal/partition"
	"mixsoc/internal/wrapper"
)

// SweepPoint is one solved planning instance of a trade-off sweep.
type SweepPoint struct {
	Width   int
	Weights Weights
	Result  *Result
}

// SweepOptions configures Engine.Sweep (and SweepWith, its one-shot
// form on a private engine).
type SweepOptions struct {
	// Exhaustive solves every point optimally; otherwise the
	// Cost_Optimizer heuristic runs.
	Exhaustive bool
	// Bounded enables branch-and-bound pruning per grid point: each
	// planner skips packing candidates whose admissible cost lower
	// bound cannot beat its incumbent (see Planner.Bounded). Every
	// point's best cost and selection are bit-identical to an unbounded
	// sweep; NEval and Evaluated shrink to the survivors, with
	// Result.Pruned counting the skips.
	Bounded bool
	// Configure adjusts each planner before it runs, e.g. to change the
	// cost model; it must not change the planner's Design, Width, or
	// caches, and must be safe to call concurrently.
	Configure func(*Planner)
	// Workers bounds the sweep's total CPU budget; 0 means the engine's
	// budget (EngineOptions.Workers, DefaultWorkers for SweepWith).
	Workers int
	// Backend selects the packing backend by name for every grid point
	// (see PlanOptions.Backend). Empty is the default occupancy backend;
	// an unknown name fails the sweep before any point is solved.
	Backend string
	// Select, when non-nil, restricts the sweep to the grid points for
	// which it returns true — the hook a sharded runner uses to solve
	// only its cells of a larger (width, weights) grid. The returned
	// slice holds only the selected points, still in weights-major
	// order. Each selected point is bit-identical to the corresponding
	// point of an unrestricted sweep. Schedule caches exist only for
	// widths with at least one selected point — an unselected width is
	// never packed.
	Select func(width int, weights Weights) bool
}

// SweepWith solves the planning problem across TAM widths and weight
// settings — the cost surface the paper's Table 4 explores — on a
// private Engine with the module caches off: fresh schedule caches, no
// state shared with any other call. It is Engine.Sweep's one-shot
// form, and the cache-less reference its results are compared against.
func SweepWith(d *Design, widths []int, weights []Weights, opt SweepOptions) ([]SweepPoint, error) {
	maxW := 0
	for _, w := range widths {
		maxW = max(maxW, w)
	}
	e := NewEngine(EngineOptions{Workers: opt.Workers, MaxWidth: maxW, DisableModuleCache: true})
	return e.Sweep(context.Background(), d, widths, weights, opt)
}

// sweep fans the (width × weights) grid out to planners wired to the
// session's caches. Grid points at the same TAM width share one
// schedule cache (test schedules do not depend on the cost weights),
// and the whole sweep shares the session's staircase cache (a module's
// staircase at a narrower width is a prefix of its staircase at a
// wider one), so no configuration is ever packed — and no wrapper ever
// designed — twice. The returned slice is ordered weights-major exactly
// as a sequential sweep, and bit-identical to one. Only the selected
// widths ever get a schedule cache.
func (s *engineSession) sweep(ctx context.Context, widths []int, weights []Weights, opt SweepOptions) ([]SweepPoint, error) {
	if len(widths) == 0 || len(weights) == 0 {
		return nil, fmt.Errorf("core: sweep needs at least one width and one weight setting")
	}
	workers := opt.Workers
	if workers < 1 {
		workers = s.engine.workers()
	}
	// Dense grid indices of the selected points, weights-major.
	keep := make([]int, 0, len(weights)*len(widths))
	maxW := 0
	selWidths := make(map[int]bool, len(widths))
	for k, wt := range weights {
		for ci, w := range widths {
			if opt.Select != nil && !opt.Select(w, wt) {
				continue
			}
			keep = append(keep, k*len(widths)+ci)
			selWidths[w] = true
			maxW = max(maxW, w)
		}
	}
	if len(keep) == 0 {
		return nil, fmt.Errorf("core: sweep selection admits no grid points")
	}
	packer, err := s.engine.packerFor(opt.Backend)
	if err != nil {
		return nil, err
	}
	// Grow the staircase cache once, before any cell asks for it.
	s.sweepStairs(maxW)
	caches := make(map[int]*ScheduleCache, len(selWidths))
	for w := range selWidths {
		caches[w] = s.sweepCache(w, packer.Name())
	}

	out := make([]SweepPoint, len(weights)*len(widths))
	errs := make([]error, len(out))
	outer, inner := SplitWorkers(workers, len(keep))
	forEach(ctx, len(keep), outer, func(j int) {
		i := keep[j]
		wt := weights[i/len(widths)]
		w := widths[i%len(widths)]
		pl := s.planner(w, wt, inner, packer, caches[w])
		pl.Bounded = opt.Bounded
		if opt.Configure != nil {
			opt.Configure(pl)
		}
		var (
			res *Result
			err error
		)
		if opt.Exhaustive {
			res, err = pl.ExhaustiveContext(ctx)
		} else {
			res, err = pl.CostOptimizerContext(ctx)
		}
		if err != nil {
			errs[i] = fmt.Errorf("core: sweep W=%d wT=%.2f: %w", w, wt.Time, err)
			return
		}
		out[i] = SweepPoint{Width: w, Weights: wt, Result: res}
	})
	if ctx != nil && ctx.Err() != nil {
		return nil, ctx.Err()
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	if len(keep) == len(out) {
		return out, nil
	}
	pts := make([]SweepPoint, 0, len(keep))
	for _, i := range keep {
		pts = append(pts, out[i])
	}
	return pts, nil
}

// WidthCurve returns the SOC test time of one fixed sharing
// configuration across TAM widths: the staircase a designer inspects to
// size the TAM. Times are non-increasing in W up to scheduling noise.
// The widths share one staircase cache, so the digital wrappers are
// designed once for the whole curve.
func WidthCurve(d *Design, p partition.Partition, widths []int) ([]int64, error) {
	if len(widths) == 0 {
		return nil, fmt.Errorf("core: width curve needs widths")
	}
	stairs := wrapper.NewStaircaseCache(slices.Max(widths))
	out := make([]int64, len(widths))
	for i, w := range widths {
		ev := NewEvaluator(d, w)
		ev.Staircases = stairs
		t, err := ev.TestTime(p)
		if err != nil {
			return nil, err
		}
		out[i] = t
	}
	return out, nil
}

// BestOver returns the sweep point with the lowest best-configuration
// cost, breaking ties toward narrower TAMs (cheaper wiring).
func BestOver(points []SweepPoint) (SweepPoint, error) {
	if len(points) == 0 {
		return SweepPoint{}, fmt.Errorf("core: empty sweep")
	}
	best := points[0]
	for _, p := range points[1:] {
		c, bc := p.Result.Best.Cost, best.Result.Best.Cost
		if c < bc || (c == bc && p.Width < best.Width) {
			best = p
		}
	}
	return best, nil
}

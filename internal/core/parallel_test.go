package core

import (
	"context"
	"reflect"
	"runtime"
	"testing"

	"mixsoc/internal/analog"
	"mixsoc/internal/itc02"
)

func planDesign() *Design {
	return &Design{Name: "p93791m", Digital: itc02.P93791(), Analog: analog.PaperCores()}
}

// The parallel engine must be an invisible optimization: for every
// solver, width and weight setting, a many-worker run returns a Result
// that is deeply identical — best configuration, costs, NEval,
// Evaluated order, everything — to the single-worker (sequential) run.
func TestParallelPlannersMatchSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("full planner grid in -short mode")
	}
	d := planDesign()
	for _, w := range []int{24, 40, 56} {
		for _, wt := range []Weights{EqualWeights, {Time: 0.25, Area: 0.75}} {
			seq := NewPlanner(d, w, wt)
			seq.Workers = 1
			par := NewPlanner(d, w, wt)
			par.Workers = 8

			exSeq, err := seq.Exhaustive()
			if err != nil {
				t.Fatal(err)
			}
			exPar, err := par.Exhaustive()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(exSeq, exPar) {
				t.Errorf("W=%d wT=%.2f: parallel Exhaustive differs from sequential:\nseq NEval=%d best=%+v\npar NEval=%d best=%+v",
					w, wt.Time, exSeq.NEval, exSeq.Best, exPar.NEval, exPar.Best)
			}

			hSeq, err := seq.CostOptimizer()
			if err != nil {
				t.Fatal(err)
			}
			hPar, err := par.CostOptimizer()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(hSeq, hPar) {
				t.Errorf("W=%d wT=%.2f: parallel CostOptimizer differs from sequential:\nseq NEval=%d best=%+v\npar NEval=%d best=%+v",
					w, wt.Time, hSeq.NEval, hSeq.Best, hPar.NEval, hPar.Best)
			}
		}
	}
}

// A shared schedule cache dedupes packing work across planners but must
// never change what a planner reports.
func TestSharedCacheDoesNotChangeResults(t *testing.T) {
	d := planDesign()
	lone := NewPlanner(d, 48, EqualWeights)
	res, err := lone.CostOptimizer()
	if err != nil {
		t.Fatal(err)
	}

	cache := NewScheduleCache()
	warm := NewPlanner(d, 48, EqualWeights)
	warm.Cache = cache
	if _, err := warm.Exhaustive(); err != nil { // warm the cache fully
		t.Fatal(err)
	}
	shared := NewPlanner(d, 48, EqualWeights)
	shared.Cache = cache
	got, err := shared.CostOptimizer()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, got) {
		t.Errorf("CostOptimizer over a pre-warmed shared cache differs:\nlone NEval=%d best=%+v\nshared NEval=%d best=%+v",
			res.NEval, res.Best, got.NEval, got.Best)
	}
}

// Sweep fans grid points across workers; the output must stay in
// weights-major order with every point identical to a sequential solve.
func TestSweepParallelDeterministic(t *testing.T) {
	d := planDesign()
	widths := []int{32, 48}
	weights := []Weights{EqualWeights, {Time: 0.75, Area: 0.25}}

	// Force a multi-worker pool even on a single-CPU machine so the
	// concurrent path is actually exercised (and raced under -race).
	old := runtime.GOMAXPROCS(4)
	points, err := SweepWith(d, widths, weights, SweepOptions{})
	runtime.GOMAXPROCS(old)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 4 {
		t.Fatalf("got %d points, want 4", len(points))
	}
	i := 0
	for _, wt := range weights {
		for _, w := range widths {
			p := points[i]
			if p.Width != w || p.Weights != wt {
				t.Errorf("point %d: got (W=%d, wT=%.2f), want (W=%d, wT=%.2f)",
					i, p.Width, p.Weights.Time, w, wt.Time)
			}
			pl := NewPlanner(d, w, wt)
			pl.Workers = 1
			ref, err := pl.CostOptimizer()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(ref, p.Result) {
				t.Errorf("point %d (W=%d, wT=%.2f): parallel sweep result differs from sequential", i, w, wt.Time)
			}
			i++
		}
	}
}

// Evaluator.Runs must count exactly the configurations requested through
// the counted API — prefetching must stay invisible to NEval.
func TestPrefetchDoesNotCount(t *testing.T) {
	d := planDesign()
	e := NewEvaluator(d, 32)
	p := d.AllShare()
	e.PrefetchContext(context.Background(), p)
	if e.Runs() != 0 {
		t.Fatalf("Runs = %d after Prefetch, want 0", e.Runs())
	}
	if _, err := e.TestTime(p); err != nil {
		t.Fatal(err)
	}
	if e.Runs() != 1 {
		t.Fatalf("Runs = %d after first counted use, want 1", e.Runs())
	}
	if _, err := e.TestTime(p); err != nil {
		t.Fatal(err)
	}
	if e.Runs() != 1 {
		t.Fatalf("Runs = %d after repeat use, want 1 (cached)", e.Runs())
	}
}

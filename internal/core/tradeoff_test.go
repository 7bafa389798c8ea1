package core

import (
	"math"
	"testing"

	"mixsoc/internal/analog"
)

func TestSweep(t *testing.T) {
	d := paperDesign()
	pts, err := SweepWith(d, []int{32, 48}, []Weights{EqualWeights}, SweepOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 {
		t.Fatalf("points = %d", len(pts))
	}
	for _, p := range pts {
		if p.Result.Best.Cost <= 0 {
			t.Errorf("W=%d: cost %v", p.Width, p.Result.Best.Cost)
		}
	}
	best, err := BestOver(pts)
	if err != nil {
		t.Fatal(err)
	}
	if best.Width != 32 && best.Width != 48 {
		t.Errorf("best width %d not in sweep", best.Width)
	}

	if _, err := SweepWith(d, nil, []Weights{EqualWeights}, SweepOptions{}); err == nil {
		t.Error("empty widths accepted")
	}
	if _, err := BestOver(nil); err == nil {
		t.Error("empty sweep accepted")
	}
}

func TestSweepConfigureHook(t *testing.T) {
	d := paperDesign()
	called := 0
	_, err := SweepWith(d, []int{32}, []Weights{EqualWeights}, SweepOptions{Configure: func(pl *Planner) {
		pl.CostModel = analog.PaperCostModel()
		called++
	}})
	if err != nil {
		t.Fatal(err)
	}
	if called != 1 {
		t.Errorf("configure called %d times", called)
	}
}

// TestSweepSelectMatchesFullSweep is the sharding contract: a sweep
// restricted to a subset of the grid must return exactly the points an
// unrestricted sweep returns for those cells, bit for bit, even though
// the restricted sweep never packs — or allocates caches for — the
// unselected widths.
func TestSweepSelectMatchesFullSweep(t *testing.T) {
	d := paperDesign()
	widths := []int{24, 32, 48}
	weights := []Weights{{Time: 0.25, Area: 0.75}, EqualWeights}
	full, err := SweepWith(d, widths, weights, SweepOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(full) != len(widths)*len(weights) {
		t.Fatalf("full sweep has %d points", len(full))
	}

	sel := func(w int, wt Weights) bool { return w != 32 && wt.Time != 0.25 }
	part, err := SweepWith(d, widths, weights, SweepOptions{Select: sel})
	if err != nil {
		t.Fatal(err)
	}
	var want []SweepPoint
	for _, p := range full {
		if sel(p.Width, p.Weights) {
			want = append(want, p)
		}
	}
	if len(part) != len(want) {
		t.Fatalf("selected sweep has %d points, want %d", len(part), len(want))
	}
	for i, p := range part {
		w := want[i]
		if p.Width != w.Width || p.Weights != w.Weights {
			t.Fatalf("point %d is (W=%d, wT=%v), want (W=%d, wT=%v)",
				i, p.Width, p.Weights.Time, w.Width, w.Weights.Time)
		}
		if math.Float64bits(p.Result.Best.Cost) != math.Float64bits(w.Result.Best.Cost) ||
			p.Result.Best.TestTime != w.Result.Best.TestTime ||
			p.Result.NEval != w.Result.NEval {
			t.Errorf("point (W=%d, wT=%v): selected sweep diverged from full sweep (cost %v vs %v, NEval %d vs %d)",
				p.Width, p.Weights.Time, p.Result.Best.Cost, w.Result.Best.Cost, p.Result.NEval, w.Result.NEval)
		}
	}

	if _, err := SweepWith(d, widths, weights, SweepOptions{
		Select: func(int, Weights) bool { return false },
	}); err == nil {
		t.Error("empty selection accepted")
	}
}

// A cold sweep through SweepWith must remain bit-identical to sweeping
// the grid by hand, one lone planner per point (which the paper-table
// reproductions rely on).
func TestSweepWithColdMatchesSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("solver sweeps are slow")
	}
	d := paperDesign()
	widths := []int{32, 48}
	weights := []Weights{{Time: 0.5, Area: 0.5}}
	b, err := SweepWith(d, widths, weights, SweepOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range widths {
		a, err := NewPlanner(d, w, weights[0]).CostOptimizer()
		if err != nil {
			t.Fatal(err)
		}
		if a.Best.Cost != b[i].Result.Best.Cost || a.NEval != b[i].Result.NEval {
			t.Fatalf("point %d: cold SweepWith diverges from a lone planner", i)
		}
	}
}

func TestWidthCurveMonotoneish(t *testing.T) {
	d := paperDesign()
	widths := []int{24, 32, 48, 64}
	curve, err := WidthCurve(d, d.NoShare(), widths)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(curve); i++ {
		// Allow small heuristic noise but demand the overall downward
		// staircase of the paper's premise.
		if float64(curve[i]) > 1.05*float64(curve[i-1]) {
			t.Errorf("test time rose sharply from W=%d (%d) to W=%d (%d)",
				widths[i-1], curve[i-1], widths[i], curve[i])
		}
	}
	if curve[len(curve)-1] >= curve[0] {
		t.Errorf("no improvement across the sweep: %v", curve)
	}
	if _, err := WidthCurve(d, d.NoShare(), nil); err == nil {
		t.Error("empty widths accepted")
	}
}

package mixsoc_test

import (
	"context"
	"fmt"
	"strings"

	"mixsoc"
)

// ExamplePlan plans the paper's benchmark SOC at TAM width 32 with
// balanced weights and prints the headline decision.
func ExamplePlan() {
	design := mixsoc.P93791M()
	res, err := mixsoc.Plan(design, 32, mixsoc.EqualWeights)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("candidates considered: %d\n", res.Candidates)
	fmt.Printf("wrappers in best plan: %d\n", res.Best.Partition.Wrappers())
	fmt.Printf("heuristic pruned TAM runs: %v\n", res.NEval < res.Candidates)
	// Output:
	// candidates considered: 26
	// wrappers in best plan: 2
	// heuristic pruned TAM runs: true
}

// ExampleScheduleFor builds a schedule for an explicit sharing choice
// (all analog cores behind one wrapper) and validates it.
func ExampleScheduleFor() {
	design := mixsoc.P93791M()
	s, err := mixsoc.ScheduleFor(design, design.AllShare(), 48)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("placements: %d\n", len(s.Placements))
	fmt.Printf("valid: %v\n", s.Validate() == nil)
	fmt.Printf("serialized groups: %d\n", len(s.GroupSpans()))
	// Output:
	// placements: 52
	// valid: true
	// serialized groups: 1
}

// ExampleSweepWith sweeps the cost surface over several TAM widths,
// using Select to solve only a chosen slice of the grid — the hook a
// sharded runner uses to split one grid across machines.
func ExampleSweepWith() {
	design := mixsoc.P93791M()
	points, err := mixsoc.SweepWith(design, []int{16, 24, 32}, []mixsoc.Weights{mixsoc.EqualWeights},
		mixsoc.SweepOptions{
			Select: func(w int, _ mixsoc.Weights) bool { return w >= 24 },
		})
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("solved %d of 3 widths\n", len(points))
	best, err := mixsoc.BestSweepPoint(points)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("cheapest at W=%d with %d wrappers\n", best.Width, best.Result.Best.Partition.Wrappers())
	// Output:
	// solved 2 of 3 widths
	// cheapest at W=24 with 2 wrappers
}

// ExampleWrapperAccuracy runs the Section 5 experiment: the cut-off
// frequency of a low-pass core measured through the 8-bit wrapper.
func ExampleWrapperAccuracy() {
	res, err := mixsoc.WrapperAccuracy()
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("true fc: %.0f kHz\n", res.TrueFc/1e3)
	fmt.Printf("error under 10%%: %v\n", res.ErrorPercent < 10)
	// Output:
	// true fc: 60 kHz
	// error under 10%: true
}

// ExampleLoadSOC parses a digital SOC from its text form.
func ExampleLoadSOC() {
	soc, err := mixsoc.LoadSOC(strings.NewReader(`SocName tiny
Module 1
  Name c
  Inputs 4
  Outputs 4
  ScanChains 2
  ScanChainLengths 20 10
  Test 1
    Patterns 7
  EndTest
EndModule
`))
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println(soc)
	// Output:
	// tiny: 1 modules, 1 cores, 30 scan bits
}

// ExampleNewEngine holds a long-lived planning engine: the second plan
// of the same design (even a separately allocated copy) is served from
// the design's cache session, and a context can cancel any call
// mid-flight.
func ExampleNewEngine() {
	eng := mixsoc.NewEngine(mixsoc.EngineOptions{MaxDesigns: 4})
	ctx := context.Background()

	first, err := eng.Plan(ctx, mixsoc.P93791M(), 32, mixsoc.EqualWeights)
	if err != nil {
		fmt.Println(err)
		return
	}
	second, err := eng.Plan(ctx, mixsoc.P93791M(), 32, mixsoc.EqualWeights)
	if err != nil {
		fmt.Println(err)
		return
	}
	m := eng.Metrics()
	fmt.Printf("same best cost: %v\n", first.Best.Cost == second.Best.Cost)
	fmt.Printf("designs cached: %d\n", m.Designs)
	fmt.Printf("schedule cache reused: %v\n", m.Schedule.Hits > 0)
	// Output:
	// same best cost: true
	// designs cached: 1
	// schedule cache reused: true
}

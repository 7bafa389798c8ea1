// Command msoc-bench times the planning hot paths and writes
// machine-readable BENCH_<name>.json files, so successive changes to the
// packer or the planners leave a comparable perf trail.
//
// Usage:
//
//	msoc-bench [-out dir] [-repeat n] [-workers n] [-bench name]
//	msoc-bench -compare old new [-regress-pct p] [-allow-metric-drift]
//	msoc-bench -trend trail1 trail2 trail3... [-regress-pct p]
//
// Each benchmark regenerates a full experiment through the same code
// paths as cmd/msoc-tables and the go test benchmarks, records the best
// wall time over -repeat runs, and embeds the experiment's headline
// metrics so a perf change that altered results is immediately visible.
//
// Each file also records the heap bytes and objects the best run
// allocated (alloc_bytes, allocs).
//
// The -compare form diffs two perf trails — single BENCH_*.json files
// or directories of them — and exits non-zero when a benchmark's best
// wall time regressed by more than -regress-pct (default 15%) or any
// headline metric changed or disappeared, naming exactly which
// benchmark and metric; this makes the trail enforceable in CI. Metrics
// only the new trail has, and allocation changes, are printed as
// advisory lines and never fail it.
//
// The -trend form reads a whole chronological sequence of trails
// (files, directories, or one directory of trail subdirectories) and
// prints per-benchmark wall-time trajectories, exiting non-zero when a
// benchmark's latest time regressed beyond -regress-pct against its
// historical best.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"mixsoc/internal/analog"
	"mixsoc/internal/core"
	"mixsoc/internal/experiments"
	"mixsoc/internal/registry"
	"mixsoc/internal/socgen"
	"mixsoc/internal/tam"
)

type report struct {
	Name        string             `json:"name"`
	GOOS        string             `json:"goos"`
	GOARCH      string             `json:"goarch"`
	GoVersion   string             `json:"go_version"`
	GOMAXPROCS  int                `json:"gomaxprocs"`
	Repeats     int                `json:"repeats"`
	BestSeconds float64            `json:"best_wall_seconds"`
	AllSeconds  []float64          `json:"wall_seconds"`
	Metrics     map[string]float64 `json:"metrics"`
	// AllocBytes and Allocs are the heap bytes and objects the best
	// run allocated (runtime.MemStats deltas). They sit beside Metrics,
	// not in it, so -compare reports them as advisory text rather than
	// as result drift; trails written before they existed read as 0.
	AllocBytes uint64 `json:"alloc_bytes"`
	Allocs     uint64 `json:"allocs"`
}

type benchmark struct {
	name string
	run  func() (map[string]float64, error)
}

func benchmarks() []benchmark {
	return []benchmark{
		{"table1", func() (map[string]float64, error) {
			rows, err := experiments.Table1(analog.PaperCostModel())
			if err != nil {
				return nil, err
			}
			m := map[string]float64{"combos": float64(len(rows))}
			for _, r := range rows {
				if r.Label == "{A,C}" {
					m["LTB{A,C}"] = r.LTB
				}
			}
			return m, nil
		}},
		{"table3", func() (map[string]float64, error) {
			res, err := experiments.Table3(nil, nil)
			if err != nil {
				return nil, err
			}
			m := map[string]float64{}
			for i, w := range res.Widths {
				m[fmt.Sprintf("spreadW%d", w)] = res.Spread[i]
			}
			return m, nil
		}},
		{"table4", func() (map[string]float64, error) {
			res, err := experiments.Table4(nil, nil, nil)
			if err != nil {
				return nil, err
			}
			return map[string]float64{
				"meanReduction%": res.MeanReduction(),
				"optimal%":       100 * res.OptimalFraction(),
			}, nil
		}},
		{"plan-heuristic", func() (map[string]float64, error) {
			pl := core.NewPlanner(experiments.Design(), 48, core.EqualWeights)
			res, err := pl.CostOptimizer()
			if err != nil {
				return nil, err
			}
			return map[string]float64{
				"NEval":    float64(res.NEval),
				"cost":     res.Best.Cost,
				"makespan": float64(res.Best.TestTime),
			}, nil
		}},
		{"plan-exhaustive", func() (map[string]float64, error) {
			pl := core.NewPlanner(experiments.Design(), 48, core.EqualWeights)
			res, err := pl.Exhaustive()
			if err != nil {
				return nil, err
			}
			return map[string]float64{
				"NEval":    float64(res.NEval),
				"cost":     res.Best.Cost,
				"makespan": float64(res.Best.TestTime),
			}, nil
		}},
		// plan-bounded runs the same exhaustive W=48 cell as
		// plan-exhaustive with branch-and-bound pruning on. Its cost must
		// track plan-exhaustive's bit for bit (pruning is exact); NEval
		// and pruned record how much packing the bound saved.
		{"plan-bounded", func() (map[string]float64, error) {
			pl := core.NewPlanner(experiments.Design(), 48, core.EqualWeights)
			pl.Bounded = true
			res, err := pl.Exhaustive()
			if err != nil {
				return nil, err
			}
			return map[string]float64{
				"NEval":    float64(res.NEval),
				"pruned":   float64(res.Pruned),
				"cost":     res.Best.Cost,
				"makespan": float64(res.Best.TestTime),
			}, nil
		}},
		// plan-rectangle runs the plan-heuristic cell through the
		// rectangle bin-packing backend, so the alternative packer keeps
		// its own perf and schedule-quality trail next to the occupancy
		// default (its metrics are intentionally its own, not
		// plan-heuristic's: a different packer may trade makespan).
		{"plan-rectangle", func() (map[string]float64, error) {
			pk, err := core.PackerFor(tam.BackendRectangle)
			if err != nil {
				return nil, err
			}
			pl := core.NewPlanner(experiments.Design(), 48, core.EqualWeights)
			pl.Packer = pk
			res, err := pl.CostOptimizer()
			if err != nil {
				return nil, err
			}
			return map[string]float64{
				"NEval":    float64(res.NEval),
				"cost":     res.Best.Cost,
				"makespan": float64(res.Best.TestTime),
			}, nil
		}},
		// The registry benchmarks pin Cost_Optimizer on SOCs the paper
		// never ran: the small, mid-size and bottleneck-bound ITC'02
		// families, each with their mixed-signal analog subset.
		registryBenchmark("d695m", 32),
		registryBenchmark("g1023m", 32),
		registryBenchmark("t512505m", 32),
		// near-dup-cache is the module-cache workload: one engine plans a
		// generated design plus seven near-duplicates (one module's
		// pattern count bumped each), the serving story for generated SOC
		// populations. The stair hit/miss counters are deterministic
		// contract numbers; the wall time is where the cache shows up.
		{"near-dup-cache", nearDupCacheBenchmark},
		// sweep-warm exercises the cross-width warm-start chain. Its
		// wall time is the point; its metrics are intentionally NOT the
		// cold sweep's (warm packing trades a few percent of schedule
		// quality), so they are tracked as their own trail entries.
		{"sweep-warm", func() (map[string]float64, error) {
			points, err := core.SweepWith(experiments.Design(), experiments.PaperWidths,
				[]core.Weights{core.EqualWeights}, core.SweepOptions{Exhaustive: true, WarmStart: true})
			if err != nil {
				return nil, err
			}
			best, err := core.BestOver(points)
			if err != nil {
				return nil, err
			}
			return map[string]float64{
				"points":   float64(len(points)),
				"bestCost": best.Result.Best.Cost,
				"bestW":    float64(best.Width),
			}, nil
		}},
	}
}

// registryBenchmark times Cost_Optimizer on a named registry design at
// the given TAM width, reported as plan-<name>.
func registryBenchmark(name string, width int) benchmark {
	return benchmark{"plan-" + name, func() (map[string]float64, error) {
		d, err := registry.Lookup(name)
		if err != nil {
			return nil, err
		}
		pl := core.NewPlanner(d, width, core.EqualWeights)
		res, err := pl.CostOptimizer()
		if err != nil {
			return nil, err
		}
		return map[string]float64{
			"NEval":    float64(res.NEval),
			"cost":     res.Best.Cost,
			"makespan": float64(res.Best.TestTime),
		}, nil
	}}
}

// nearDupCacheBenchmark plans a generated design and seven
// near-duplicates of it on one shared engine. Every design differs from
// the base in exactly one module, so the cross-design module staircase
// store should serve all the unchanged modules from cache; the metrics
// record that sharing (and the summed best costs, so a cache bug that
// moved results would drift the trail).
func nearDupCacheBenchmark() (map[string]float64, error) {
	const variants = 8
	base, err := socgen.Generate(socgen.Options{Seed: 7, Class: socgen.Small})
	if err != nil {
		return nil, err
	}
	designs := []*core.Design{base}
	cores := base.Digital.Cores()
	for i := 1; i < variants; i++ {
		nd, err := core.CloneDesign(base)
		if err != nil {
			return nil, err
		}
		nd.Name = fmt.Sprintf("%s-rev%d", base.Name, i)
		m := nd.Digital.Cores()[(i-1)%len(cores)]
		if len(m.Tests) == 0 {
			return nil, fmt.Errorf("generated module %d has no tests to perturb", m.ID)
		}
		m.Tests[0].Patterns += i
		designs = append(designs, nd)
	}
	eng := core.NewEngine(core.EngineOptions{})
	var costSum float64
	for _, d := range designs {
		res, err := eng.Plan(context.Background(), d, 16, core.EqualWeights)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", d.Name, err)
		}
		costSum += res.Best.Cost
	}
	em := eng.Metrics()
	return map[string]float64{
		"designs":     variants,
		"stairHits":   float64(em.ModuleStairs.Hits),
		"stairMisses": float64(em.ModuleStairs.Misses),
		"jobBuilds":   float64(em.DigitalJobs.Misses),
		"costSum":     costSum,
	}, nil
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("msoc-bench: ")
	out := flag.String("out", ".", "directory for the BENCH_*.json files")
	repeat := flag.Int("repeat", 3, "runs per benchmark; the best wall time is reported")
	workers := flag.Int("workers", 0, "cap the worker pool (0 = all CPUs)")
	which := flag.String("bench", "all", "benchmark to run: table1, table3, table4, plan-heuristic, plan-exhaustive, plan-bounded, plan-rectangle, plan-d695m, plan-g1023m, plan-t512505m, near-dup-cache, sweep-warm, or all")
	compare := flag.Bool("compare", false, "compare two perf trails (files or directories) given as positional args and exit non-zero on regression")
	trend := flag.Bool("trend", false, "print per-benchmark wall-time trajectories across the trails given as positional args (chronological order) and exit non-zero on regression")
	regressPct := flag.Float64("regress-pct", 15, "with -compare/-trend: allowed wall-time growth in percent")
	minSeconds := flag.Float64("min-seconds", 0.01, "with -compare/-trend: skip the time check under this many seconds (noise floor)")
	allowDrift := flag.Bool("allow-metric-drift", false, "with -compare: tolerate changed headline metrics instead of failing")
	flag.Parse()

	// flag.Parse stops at the first positional, so tolerate the natural
	// `-compare old new -regress-pct 20` ordering by re-parsing whatever
	// follows the positional arguments.
	reparseTail := func(mode string, args []string) []string {
		split := len(args)
		for i, a := range args {
			if strings.HasPrefix(a, "-") {
				split = i
				break
			}
		}
		if split == len(args) {
			return args
		}
		fs := flag.NewFlagSet(mode, flag.ExitOnError)
		fs.Float64Var(regressPct, "regress-pct", *regressPct, "allowed wall-time growth in percent")
		fs.Float64Var(minSeconds, "min-seconds", *minSeconds, "noise floor for the time check")
		fs.BoolVar(allowDrift, "allow-metric-drift", *allowDrift, "tolerate changed headline metrics")
		if err := fs.Parse(args[split:]); err != nil {
			log.Fatal(err)
		}
		return append(append([]string{}, args[:split]...), fs.Args()...)
	}

	if *workers > 0 {
		runtime.GOMAXPROCS(*workers)
	}

	if *compare {
		args := reparseTail("compare", flag.Args())
		if len(args) != 2 {
			log.Fatal("-compare needs two arguments: old and new (BENCH_*.json files or directories)")
		}
		lines, failures, err := runCompare(args[0], args[1], *regressPct, *minSeconds, *allowDrift)
		if err != nil {
			log.Fatal(err)
		}
		for _, l := range lines {
			fmt.Println(l)
		}
		if len(failures) > 0 {
			log.Fatalf("perf trail check failed:\n  %s", strings.Join(failures, "\n  "))
		}
		fmt.Printf("perf trail ok: no regression beyond %.0f%%, metrics stable\n", *regressPct)
		return
	}

	if *trend {
		args := reparseTail("trend", flag.Args())
		lines, failures, err := runTrend(args, *regressPct, *minSeconds)
		if err != nil {
			log.Fatal(err)
		}
		for _, l := range lines {
			fmt.Println(l)
		}
		if len(failures) > 0 {
			log.Fatalf("perf trend regressed:\n  %s", strings.Join(failures, "\n  "))
		}
		fmt.Printf("perf trend ok: no regression beyond %.0f%% vs historical best\n", *regressPct)
		return
	}

	if *repeat < 1 {
		*repeat = 1
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		log.Fatal(err)
	}

	ran := 0
	for _, b := range benchmarks() {
		if *which != "all" && *which != b.name {
			continue
		}
		ran++
		rep := report{
			Name:       b.name,
			GOOS:       runtime.GOOS,
			GOARCH:     runtime.GOARCH,
			GoVersion:  runtime.Version(),
			GOMAXPROCS: runtime.GOMAXPROCS(0),
			Repeats:    *repeat,
		}
		var before, after runtime.MemStats
		for i := 0; i < *repeat; i++ {
			runtime.ReadMemStats(&before)
			start := time.Now()
			metrics, err := b.run()
			secs := time.Since(start).Seconds()
			runtime.ReadMemStats(&after)
			if err != nil {
				log.Fatalf("%s: %v", b.name, err)
			}
			rep.AllSeconds = append(rep.AllSeconds, secs)
			if rep.BestSeconds == 0 || secs < rep.BestSeconds {
				rep.BestSeconds = secs
				rep.AllocBytes = after.TotalAlloc - before.TotalAlloc
				rep.Allocs = after.Mallocs - before.Mallocs
			}
			rep.Metrics = metrics
		}
		path := filepath.Join(*out, "BENCH_"+rep.Name+".json")
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			log.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-16s %8.3fs  -> %s\n", rep.Name, rep.BestSeconds, path)
	}
	if ran == 0 {
		log.Fatalf("unknown -bench %q", *which)
	}
}

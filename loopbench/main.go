// Command loopbench is the repository's end-to-end benchmark: it serves
// an in-process service.Server on a real loopback listener, drives one
// named closed-loop workload against it for a fixed time, checks every
// response byte for byte against the exported in-process path, and
// prints the metrics by name and unit. The last line of standard output
// is one JSON object: {"correct", "attempted", "failed", "metrics"}.
//
//	go run . --workload plan-cold --seed 1 --seconds 10 --trace 0
//
// With --trace 1 the run is split: an untraced half gives the engine's
// cache hit ratios and the reference latency, then a traced half times
// the calls into each layer and prints the per-layer metrics instead.
// See README.md for the metrics and workloads.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"mixsoc/internal/service"
)

// setupRepeats is how many times a run sets up; setup_s is the median.
const setupRepeats = 5

// workloadSpec is one named workload.
type workloadSpec struct {
	clients int // closed-loop clients, at most nproc
	// unit is how many consecutive calls a client claims at once: one
	// cycle of the stream's mix.
	unit int
	// tailCeiling is the highest percentile req_tail_ms may use.
	// plan-cold runs 55-130 calls a second, so its window crosses the
	// 1000 calls p99 needs somewhere between 8 and 20 s; its tail
	// stays at p90 rather than switch percentile with machine speed.
	tailCeiling int
	gen         func(seed int64) (generator, error)
}

var workloads = map[string]workloadSpec{
	planCold: {2, batchEvery, 90, func(seed int64) (generator, error) { return coldGen{seed: seed}, nil }},
	planHot:  {2, 1, 99, func(seed int64) (generator, error) { return newHotGen(seed) }},
	sweep:    {1, 2, 99, func(seed int64) (generator, error) { return newSweepGen(seed) }},
}

// warmUps are plans outside every stream, sent once at set-up so lazy
// initialisation finishes before the window.
var warmUps = []string{
	`{"benchmark":"d281m","width":32}`,
	`{"benchmark":"d695m","width":32}`,
	`{"benchmark":"g1023m","width":32}`,
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: plan-cold, plan-hot or sweep")
	seed := flag.Int64("seed", 1, "seed of the request stream")
	seconds := flag.Float64("seconds", 10, "length of the measurement window")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer measurement")
	flag.Parse()
	res, err := run(*name, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "loopbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "loopbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// bench is a set-up workload: the live server, the stream and, for
// plan-hot, the working set's references.
type bench struct {
	h    *harness
	gen  generator
	refs []reference
}

// setUp starts the server and builds the stream. plan-hot also computes
// its working set's references on a fresh server and warms the live
// server with every request form of every entry.
func setUp(spec workloadSpec, seed int64) (*bench, error) {
	g, err := spec.gen(seed)
	if err != nil {
		return nil, err
	}
	h, err := startHarness()
	if err != nil {
		return nil, err
	}
	b := &bench{h: h, gen: g}
	hot, ok := g.(*hotGen)
	if !ok {
		for _, body := range warmUps {
			if _, err := h.post("/v1/plan", []byte(body), 200); err != nil {
				h.close()
				return nil, fmt.Errorf("warm-up plan: %w", err)
			}
		}
		return b, nil
	}
	ref := service.New(service.Options{})
	defer ref.Close()
	for e, entry := range hot.entries {
		r := referenceOf(ref, call{reqs: []request{{kindPlan, entry.forms[0]}}, plans: 1, entry: e})
		if r.err != nil {
			h.close()
			return nil, fmt.Errorf("plan-hot entry %s: %w", entry.label, r.err)
		}
		b.refs = append(b.refs, r)
		for _, body := range entry.forms {
			if _, err := h.post("/v1/plan", body, 200); err != nil {
				h.close()
				return nil, fmt.Errorf("warming %s: %w", entry.label, err)
			}
		}
	}
	return b, nil
}

func run(name string, seed int64, d time.Duration, traced bool) (*result, error) {
	spec, ok := workloads[name]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (have plan-cold, plan-hot, sweep)", name)
	}
	if d <= 0 {
		return nil, errors.New("--seconds must be positive")
	}
	clients := min(spec.clients, runtime.NumCPU())
	fmt.Printf("# loopbench %s seed=%d seconds=%g trace=%t\n", name, seed, d.Seconds(), traced)
	fmt.Printf("# machine: nproc=%d GOMAXPROCS=%d %s %s/%s clients=%d\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH, clients)

	var b *bench
	var setups []float64
	for k := 0; k < setupRepeats; k++ {
		t0 := time.Now()
		bk, err := setUp(spec, seed)
		if err != nil {
			if b != nil {
				b.h.close()
			}
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		if b != nil {
			b.h.close()
		}
		b = bk
	}
	defer b.h.close()

	if traced {
		return runTraced(b, spec, clients, d)
	}
	w, err := runWindow(b.h, b.gen, b.refs, spec, clients, d, 0)
	if err != nil {
		return nil, err
	}
	v, selfTest, err := verify(w, b.gen, b.refs)
	if err != nil {
		return nil, fmt.Errorf("verifying: %w", err)
	}
	printDraws(w.draws)
	m := map[string]metric{
		"setup_s":           {median(setups), "s"},
		"plans_per_s":       {float64(w.plans) / w.elapsed.Seconds(), "1/s"},
		"req_p50_ms":        {w.p50, "ms"},
		"req_tail_ms":       {w.tail.Value, "ms"},
		"alloc_kb_per_plan": {ratio(float64(w.alloc)/1024, float64(w.plans)), "KB"},
		"live_heap_mb":      {float64(w.heap) / (1 << 20), "MB"},
		"mean_cost":         {ratio(v.costSum, float64(v.costN)), "cost"},
	}
	notes := map[string]string{
		"setup_s":           fmt.Sprintf("median of %.4g s", setups),
		"plans_per_s":       fmt.Sprintf("%d plans in %.3fs", w.plans, w.elapsed.Seconds()),
		"req_p50_ms":        fmt.Sprintf("n=%d calls", w.tail.N),
		"req_tail_ms":       fmt.Sprintf("p%d of n=%d calls, %d beyond", w.tail.P, w.tail.N, w.tail.Beyond),
		"alloc_kb_per_plan": "whole process: server, client and loopback",
		"live_heap_mb":      "after a forced GC at the end of the window",
		"mean_cost":         fmt.Sprintf("mean Best.Cost of n=%d verified plans", v.costN),
	}
	printMetrics(m, notes)
	fmt.Printf("failed_ratio %g ratio (%d of %d calls; self-test counted a corrupted body: %t)\n",
		ratio(float64(v.failed), float64(w.calls)), v.failed, w.calls, selfTest)
	if v.firstErr != nil {
		fmt.Println("# first failure:", v.firstErr)
	}
	return &result{Correct: v.failed == 0 && selfTest, Attempted: w.calls, Failed: v.failed, Metrics: m}, nil
}

// runTraced measures the untraced half (cache ratios, reference
// latency), then traces the second half one call at a time.
func runTraced(b *bench, spec workloadSpec, clients int, d time.Duration) (*result, error) {
	twin := service.New(service.Options{})
	defer twin.Close()
	tr := newTracer(b.h, twin)
	if hot, ok := b.gen.(*hotGen); ok {
		// Warm the twin and the traced path's caches as set-up warmed the
		// live server.
		for e, entry := range hot.entries {
			tr.trace(-1, call{reqs: []request{{kindPlan, entry.forms[0]}}, plans: 1, entry: e})
		}
		if tr.failed > 0 {
			return nil, fmt.Errorf("warming the traced path: %w", tr.firstErr)
		}
		tr.reset()
	}

	before := b.h.srv.Engine().Metrics()
	w, err := runWindow(b.h, b.gen, b.refs, spec, clients, d/2, 0)
	if err != nil {
		return nil, err
	}
	after := b.h.srv.Engine().Metrics()
	v, selfTest, err := verify(w, b.gen, b.refs)
	if err != nil {
		return nil, fmt.Errorf("verifying: %w", err)
	}

	if err := tr.run(b.gen, w.calls, d/2); err != nil {
		return nil, err
	}
	m := tr.perLayer()
	for k, v := range cacheRatios(before, after) {
		m[k] = v
	}
	m["trace.overhead_pct"] = metric{100 * (ratio(median(tr.rtt), w.p50) - 1), "%"}
	notes := map[string]string{
		"trace.overhead_pct": fmt.Sprintf("traced round-trip median of n=%d calls against the untraced of n=%d", len(tr.rtt), w.tail.N),
		"tam.pack_ms":        fmt.Sprintf("per plan, over n=%d traced plans", tr.layers.n.plans),
	}
	printMetrics(m, notes)
	fmt.Printf("# untraced: %d of %d calls failed; traced: %d of %d calls failed, %d plans differed from the served ones\n",
		v.failed, w.calls, tr.failed, tr.calls, tr.layers.n.mismatches)
	for _, err := range []error{v.firstErr, tr.firstErr, tr.layers.n.firstMismatch} {
		if err != nil {
			fmt.Println("# first failure:", err)
		}
	}
	failed := v.failed + tr.failed
	return &result{
		Correct:   failed == 0 && selfTest && tr.layers.n.mismatches == 0,
		Attempted: w.calls + tr.calls,
		Failed:    failed,
		Metrics:   m,
	}, nil
}

func printMetrics(m map[string]metric, notes map[string]string) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		line := fmt.Sprintf("%s %.6g %s", n, m[n].Value, m[n].Unit)
		if note := notes[n]; note != "" {
			line += " (" + note + ")"
		}
		fmt.Println(line)
	}
}

// printDraws prints the shares the delivered calls actually drew.
func printDraws(draws map[string]int) {
	sh := shares(draws)
	dims := make([]string, 0, len(sh))
	for dim := range sh {
		dims = append(dims, dim)
	}
	sort.Strings(dims)
	for _, dim := range dims {
		vals := make([]string, 0, len(sh[dim]))
		for v, f := range sh[dim] {
			vals = append(vals, fmt.Sprintf("%s=%.3f", v, f))
		}
		sort.Strings(vals)
		fmt.Printf("# drew %s: %s\n", dim, strings.Join(vals, " "))
	}
}

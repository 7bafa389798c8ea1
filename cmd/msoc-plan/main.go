// Command msoc-plan runs the mixed-signal test planner on a SOC and
// prints the chosen wrapper-sharing configuration, cost breakdown, and
// TAM schedule.
//
// Usage:
//
//	msoc-plan [-soc file.soc | -benchmark name] [-width 32] [-wt 0.5]
//	          [-exhaustive] [-bounded] [-backend rectangle] [-gantt] [-json]
//	          [-sweep [-widths 32,40,48,56,64] [-wts 0.5,0.25,0.75]]
//	          [-server http://host:8093 [-poll 500ms]]
//
// Without -soc or -benchmark the embedded p93791m benchmark is used
// (the paper's experimental SOC). With -soc, the digital SOC is read
// from the file and the paper's five analog cores are attached. With
// -benchmark, a named design from the embedded registry is planned —
// any mixed-signal name from mixsoc.Benchmarks(), e.g. d695m or
// t512505m.
//
// With -backend the TAM packer is chosen explicitly: "occupancy" (the
// paper's occupancy-sweep optimizer, also the default when the flag is
// absent), "rectangle" (the diagonal-ordered rectangle bin-packing
// backend), or "tournament" (every backend packs, the best validated
// makespan wins). Omitting the flag keeps the original pipeline
// byte-for-byte.
//
// With -json the plan is printed as the serving layer's PlanResponse
// JSON — byte-identical to what a msoc-serve POST /v1/plan returns for
// the same (width, wt, exhaustive) request, which is how CI smoke-tests
// the service against the CLI. Combined with -sweep, the output is the
// SweepResponse JSON for the -widths × -wts grid — byte-identical to a
// POST /v1/sweep of the same grid, whether the answering server plans
// in-process or coordinates the sweep across distributed workers (the
// distributed-smoke CI job diffs exactly that).
//
// With -server and -sweep the CLI becomes a durable-job client: the
// grid is submitted to the server's POST /v1/sweeps, the job is polled
// every -poll until it finishes (progress on stderr), and the result
// bytes — identical to a synchronous POST /v1/sweep and to the local
// -json -sweep output — are printed to stdout. The job survives the
// client: interrupt msoc-plan and re-run the same command to reattach
// (identical submissions dedupe onto the existing job), and a server
// started with -job-dir even survives its own crash mid-sweep.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"mixsoc"
	"mixsoc/internal/core"
	"mixsoc/internal/service"
	"mixsoc/internal/tam"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("msoc-plan: ")

	socPath := flag.String("soc", "", "digital SOC file (ITC'02-style format); default: embedded p93791")
	benchmark := flag.String("benchmark", "", "named registry benchmark to plan (a mixed-signal name from mixsoc.Benchmarks(), e.g. d695m); default: p93791m")
	width := flag.Int("width", 32, "SOC-level TAM width W")
	wt := flag.Float64("wt", 0.5, "test-time cost weight wT (wA = 1 - wT)")
	exhaustive := flag.Bool("exhaustive", false, "use exhaustive evaluation instead of Cost_Optimizer")
	bounded := flag.Bool("bounded", false, "prune candidates with the admissible cost lower bound (same answer, fewer packings)")
	backend := flag.String("backend", "", "packing backend: occupancy (default), rectangle, or tournament")
	gantt := flag.Bool("gantt", false, "print an ASCII Gantt chart of the schedule")
	csvPath := flag.String("csv", "", "write the schedule as CSV to this file")
	sweep := flag.Bool("sweep", false, "sweep the -widths × -wts grid instead of a single plan")
	widthsFlag := flag.String("widths", "32,40,48,56,64", "comma-separated TAM widths for -sweep")
	wtsFlag := flag.String("wts", "0.5,0.25,0.75", "comma-separated test-time weights wT for -sweep")
	jsonOut := flag.Bool("json", false, "print the plan (or, with -sweep, the sweep) as the serving layer's JSON (byte-identical to msoc-serve)")
	server := flag.String("server", "", "msoc-serve base URL; with -sweep, submit the grid as a durable job (POST /v1/sweeps), poll it, and print the result JSON")
	pollEvery := flag.Duration("poll", 500*time.Millisecond, "job status poll period for -server")
	flag.Parse()

	if *socPath != "" && *benchmark != "" {
		log.Fatal("-soc and -benchmark are mutually exclusive")
	}
	design := mixsoc.P93791M()
	if *socPath != "" {
		f, err := os.Open(*socPath)
		if err != nil {
			log.Fatal(err)
		}
		soc, err := mixsoc.LoadSOC(f)
		f.Close()
		if err != nil {
			log.Fatal(err)
		}
		design = &mixsoc.Design{Name: soc.Name + "-m", Digital: soc, Analog: mixsoc.PaperAnalogCores()}
	}
	if *benchmark != "" {
		d, err := mixsoc.LookupBenchmark(*benchmark)
		if err != nil {
			log.Fatal(err)
		}
		if len(d.Analog) == 0 {
			log.Fatalf("benchmark %q is digital-only; use %q", *benchmark, *benchmark+"m")
		}
		design = d
	}

	if *server != "" && !*sweep {
		log.Fatal("-server needs -sweep: only sweeps run as durable jobs")
	}

	if *sweep {
		widths, err := parseInts(*widthsFlag)
		if err != nil {
			log.Fatalf("-widths: %v", err)
		}
		wts, err := parseFloats(*wtsFlag)
		if err != nil {
			log.Fatalf("-wts: %v", err)
		}
		if *server != "" {
			runServerSweep(*server, design, *socPath != "", *benchmark, widths, wts, *exhaustive, *bounded, *backend, *pollEvery)
			return
		}
		if *jsonOut {
			printSweepJSON(design, *socPath != "", *benchmark, widths, wts, *exhaustive, *bounded, *backend)
			return
		}
		runSweep(design, widths, wts, *exhaustive, *bounded, *backend)
		return
	}

	if *jsonOut {
		printJSON(design, *socPath != "", *benchmark, *width, *wt, *exhaustive, *bounded, *backend)
		return
	}

	packer, err := core.PackerFor(*backend)
	if err != nil {
		log.Fatal(err)
	}
	weights := mixsoc.Weights{Time: *wt, Area: 1 - *wt}
	planner := mixsoc.NewPlanner(design, *width, weights)
	planner.Bounded = *bounded
	planner.Packer = packer

	var res *mixsoc.Result
	if *exhaustive {
		res, err = planner.Exhaustive()
	} else {
		res, err = planner.CostOptimizer()
	}
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("TAM width %d, weights wT=%.2f wA=%.2f\n\n", *width, weights.Time, weights.Area)
	fmt.Print(res.Report(design))

	s, err := scheduleFor(design, res.Best.Partition, *width, packer)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nschedule: %d placements, %.1f%% TAM utilization\n",
		len(s.Placements), 100*s.Utilization())
	if *csvPath != "" {
		if err := os.WriteFile(*csvPath, []byte(s.CSV()), 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("schedule written to %s\n", *csvPath)
	}
	if *gantt {
		fmt.Println()
		fmt.Print(s.Gantt(96))
	} else {
		fmt.Println("last five tests to finish:")
		by := s.ByEnd()
		for i := len(by) - 5; i < len(by); i++ {
			if i < 0 {
				continue
			}
			p := by[i]
			fmt.Printf("  %-14s width %2d  [%9d .. %9d)\n", p.Job.ID, p.Width, p.Start, p.End)
		}
	}
}

// scheduleFor packs the winning configuration's schedule through the
// selected backend, so the printed schedule is the one that packer
// produces.
func scheduleFor(design *mixsoc.Design, p mixsoc.Partition, width int, packer tam.Packer) (*mixsoc.Schedule, error) {
	jobs, err := core.BuildJobs(design, p, width)
	if err != nil {
		return nil, err
	}
	return packer.Pack(jobs, width)
}

// parseInts parses a comma-separated integer list.
func parseInts(s string) ([]int, error) {
	var out []int
	for _, f := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

// parseFloats parses a comma-separated float list.
func parseFloats(s string) ([]float64, error) {
	var out []float64
	for _, f := range strings.Split(s, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

// runSweep prints the cost surface over the requested width range and
// weight settings and the overall cheapest point.
func runSweep(design *mixsoc.Design, widths []int, wts []float64, exhaustive, bounded bool, backend string) {
	weights := make([]mixsoc.Weights, len(wts))
	for i, wt := range wts {
		weights[i] = mixsoc.Weights{Time: wt, Area: 1 - wt}
	}
	points, err := mixsoc.SweepWith(design, widths, weights, mixsoc.SweepOptions{Exhaustive: exhaustive, Bounded: bounded, Backend: backend})
	if err != nil {
		log.Fatal(err)
	}
	names := design.AnalogNames()
	fmt.Printf("cost sweep of %s (%s)\n\n", design.Name, method(exhaustive))
	fmt.Printf("%-16s", "weights \\ W")
	for _, w := range widths {
		fmt.Printf(" %9s", fmt.Sprintf("W=%d", w))
	}
	fmt.Println()
	i := 0
	for _, wt := range weights {
		fmt.Printf("wT=%.2f wA=%.2f ", wt.Time, wt.Area)
		for range widths {
			fmt.Printf(" %9.2f", points[i].Result.Best.Cost)
			i++
		}
		fmt.Println()
	}
	best, err := mixsoc.BestSweepPoint(points)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ncheapest point: W=%d wT=%.2f -> cost %.2f via %s\n",
		best.Width, best.Weights.Time, best.Result.Best.Cost, best.Result.Best.Label(names))
}

func method(exhaustive bool) string {
	if exhaustive {
		return "exhaustive"
	}
	return "cost-optimizer"
}

// printJSON runs the plan through the serving layer's own code path and
// encoder, so the bytes on stdout are exactly what a msoc-serve
// POST /v1/plan returns for the same request. Unlike a server, the CLI
// imposes no planning deadline (the response bytes are unaffected — a
// deadline can only abort a plan, never change one).
func printJSON(design *mixsoc.Design, inline bool, benchmark string, width int, wt float64, exhaustive, bounded bool, backend string) {
	req := service.PlanRequest{Width: width, WT: &wt, Exhaustive: exhaustive, Bounded: bounded, Benchmark: benchmark, Backend: backend}
	if inline {
		data, err := core.MarshalDesign(design)
		if err != nil {
			log.Fatal(err)
		}
		req.Design = data
	}
	srv := service.New(service.Options{RequestTimeout: math.MaxInt64})
	resp, err := srv.Plan(context.Background(), req)
	if err != nil {
		log.Fatal(err)
	}
	if err := service.WriteJSON(os.Stdout, resp); err != nil {
		log.Fatal(err)
	}
}

// runServerSweep is the durable-job client: submit the grid to the
// server's POST /v1/sweeps (identical re-submissions reattach to the
// existing job), poll until the job is terminal, and print the result
// bytes — the same bytes -json -sweep prints locally — to stdout.
func runServerSweep(server string, design *mixsoc.Design, inline bool, benchmark string, widths []int, wts []float64, exhaustive, bounded bool, backend string, pollEvery time.Duration) {
	req := service.SweepRequest{Widths: widths, WTs: wts, Exhaustive: exhaustive, Bounded: bounded, Benchmark: benchmark, Backend: backend}
	if inline {
		data, err := core.MarshalDesign(design)
		if err != nil {
			log.Fatal(err)
		}
		req.Design = data
	}
	body, err := json.Marshal(req)
	if err != nil {
		log.Fatal(err)
	}
	resp, err := http.Post(server+"/v1/sweeps", "application/json", bytes.NewReader(body))
	if err != nil {
		log.Fatal(err)
	}
	job := decodeJob(resp)
	log.Printf("job %s: %s (%d/%d shards)", job.ID, job.State, job.ShardsDone, job.ShardsTotal)

	for job.State == service.JobStateRunning {
		time.Sleep(pollEvery)
		statusResp, err := http.Get(server + "/v1/sweeps/" + job.ID)
		if err != nil {
			log.Fatal(err)
		}
		next := decodeJob(statusResp)
		if next.ShardsDone != job.ShardsDone || next.State != job.State {
			log.Printf("job %s: %s (%d/%d shards)", next.ID, next.State, next.ShardsDone, next.ShardsTotal)
		}
		job = next
	}
	if job.State != service.JobStateDone {
		log.Fatalf("job %s %s: %s", job.ID, job.State, job.Error)
	}

	result, err := http.Get(server + "/v1/sweeps/" + job.ID + "/result")
	if err != nil {
		log.Fatal(err)
	}
	defer result.Body.Close()
	if result.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(result.Body)
		log.Fatalf("fetching result: status %d: %s", result.StatusCode, msg)
	}
	if _, err := io.Copy(os.Stdout, result.Body); err != nil {
		log.Fatal(err)
	}
}

// decodeJob reads one job-status response, treating anything but the
// submit/poll success codes (202 created, 200 existing) as fatal.
func decodeJob(resp *http.Response) *service.JobResponse {
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		log.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		log.Fatalf("job request failed: status %d: %s", resp.StatusCode, body)
	}
	var jr service.JobResponse
	if err := json.Unmarshal(body, &jr); err != nil {
		log.Fatalf("job response not JSON: %v: %s", err, body)
	}
	return &jr
}

// printSweepJSON is printJSON for -sweep: the serving layer's own sweep
// path and encoder, so the bytes on stdout are exactly what a
// msoc-serve POST /v1/sweep returns for the same grid — the in-process
// reference the distributed-smoke CI job diffs a coordinator's merged
// response against.
func printSweepJSON(design *mixsoc.Design, inline bool, benchmark string, widths []int, wts []float64, exhaustive, bounded bool, backend string) {
	req := service.SweepRequest{Widths: widths, WTs: wts, Exhaustive: exhaustive, Bounded: bounded, Benchmark: benchmark, Backend: backend}
	if inline {
		data, err := core.MarshalDesign(design)
		if err != nil {
			log.Fatal(err)
		}
		req.Design = data
	}
	srv := service.New(service.Options{RequestTimeout: math.MaxInt64})
	resp, err := srv.Sweep(context.Background(), req)
	if err != nil {
		log.Fatal(err)
	}
	if err := service.WriteJSON(os.Stdout, resp); err != nil {
		log.Fatal(err)
	}
}

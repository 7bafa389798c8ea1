package main

// Seeded request-stream generators. Call i of a workload is a pure
// function of (seed, i): the same seed gives byte-identical request
// bodies whatever the timing, so the calls a window delivers are always
// the prefix [0, n) of one fixed stream, and verification can rebuild
// any call from its index instead of keeping its body.

import (
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"strings"

	"mixsoc/internal/core"
	"mixsoc/internal/registry"
	"mixsoc/internal/service"
	"mixsoc/internal/socgen"
)

// Workload names, as given to --workload.
const (
	planCold = "plan-cold"
	planHot  = "plan-hot"
	sweep    = "sweep"
)

// kind is the endpoint a request exercises.
type kind int

const (
	kindPlan  kind = iota // POST /v1/plan
	kindBatch             // POST /v1/batch
	kindSweep             // POST /v1/sweep
	kindJob               // POST /v1/sweeps, its /events stream, then /result
)

// request is one HTTP exchange.
type request struct {
	kind kind
	body []byte
}

// call is one generated closed-loop call: its requests are sent one
// after another, and its latency spans them all.
type call struct {
	reqs  []request
	plans int // plans the call delivers: 1, the batch items or the sweep cells
	entry int // plan-hot working-set entry, -1 for every other workload
	// draws tallies what the generator drew for this call, one key per
	// dimension and value ("class/small", "solver/bounded", ...).
	draws []string
}

// generator yields call i of a workload's stream.
type generator interface {
	call(i int) (call, error)
}

// stream derives the independent random source of draw site (seed,
// salt, i): a PCG generator seeded through a splitmix64 finalizer, so
// neighbouring indices and seeds get unrelated streams.
func stream(seed int64, salt, i uint64) *rand.Rand {
	z := uint64(seed)*0x9e3779b97f4a7c15 ^ salt*0xbf58476d1ce4e5b9 ^ (i+1)*0x94d049bb133111eb
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	z ^= z >> 31
	return rand.New(rand.NewPCG(z, salt))
}

// Draw-site salts.
const (
	saltCall = iota + 1
	saltClass
	saltSolver
	saltRevision
	saltWidth
	saltWT
)

// Plan-cold shape: call i is a batch of batchItems items when
// i%batchEvery == batchEvery-1, and batchDups of its items repeat an
// earlier item of the same batch.
const (
	batchEvery  = 8
	batchItems  = 16
	batchDups   = 4
	uniqueItems = batchItems - batchDups
	// recentSlots is how far back a revision's base design may lie.
	recentSlots = 16
)

var coldWTs = []float64{0.25, 0.5, 0.75}

// coldGen generates plan-cold. Every distinct design of the stream has
// a slot number; slot draws are stratified over blocks of slots, so
// any stretch of the stream holds the mix in close to its exact
// proportions: classes 10:7:3 small/medium/large per 20 slots (with
// their analog core counts spread evenly over each class range), solvers
// 8:1:1 heuristic/bounded/rectangle per 10 (bounded falls back to the
// heuristic on large designs), one revision of a recent slot's design
// per 4, and every width 16-64 once per 49.
type coldGen struct{ seed int64 }

// position returns slot s's place in a seeded permutation of its block
// of size block.
func (g coldGen) position(salt uint64, s, block int) int {
	return stream(g.seed, salt, uint64(s/block)).Perm(block)[s%block]
}

// firstSlot is the slot of call i's first design: single plans use one
// slot, batches one per unique item.
func firstSlot(i int) int {
	batches := i / batchEvery
	return i - batches + batches*uniqueItems
}

// design builds slot s's design and reports its class and whether it
// is a revision.
func (g coldGen) design(s int) (*core.Design, socgen.Class, bool, error) {
	if s > 0 && g.position(saltRevision, s, 4) == 0 {
		r := stream(g.seed, saltRevision, uint64(s))
		d, class, _, err := g.design(s - 1 - r.IntN(min(s, recentSlots)))
		if err != nil {
			return nil, class, false, err
		}
		return d, class, true, revise(d, r, 1+r.IntN(8))
	}
	// The slot's place in its block of 20 fixes its class and analog
	// core count: small 2,3 five times each; medium 3,4,3,4,3,4,3;
	// large 4, 5 and 6 once each.
	opt := socgen.Options{Seed: g.seed*1_000_003 + int64(s)}
	switch p := g.position(saltClass, s, 20); {
	case p >= 17:
		opt.Class, opt.AnalogCores = socgen.Large, 4+p-17
	case p >= 10:
		opt.Class, opt.AnalogCores = socgen.Medium, 3+(p-10)%2
	default:
		opt.Class, opt.AnalogCores = socgen.Small, 2+p%2
	}
	d, err := socgen.Generate(opt)
	return d, opt.Class, false, err
}

// revise changes one test's pattern count of one core module of d by
// delta, in place: a one-module revision that keeps every other
// module's content (and so its cached staircase) unchanged.
func revise(d *core.Design, r *rand.Rand, delta int) error {
	cores := d.Digital.Cores()
	for range cores {
		m := cores[r.IntN(len(cores))]
		for ti := range m.Tests {
			if m.Tests[ti].Patterns > 0 {
				m.Tests[ti].Patterns += delta
				return nil
			}
		}
	}
	return fmt.Errorf("design %s has no core test to revise", d.Name)
}

// item is the plan request of slot s.
func (g coldGen) item(s int, draws *[]string) (service.PlanRequest, error) {
	d, class, revised, err := g.design(s)
	if err != nil {
		return service.PlanRequest{}, err
	}
	inline, err := core.MarshalDesign(d)
	if err != nil {
		return service.PlanRequest{}, err
	}
	wt := coldWTs[g.position(saltWT, s, len(coldWTs))]
	req := service.PlanRequest{Design: inline, Width: 16 + g.position(saltWidth, s, 49), WT: &wt}
	solver := "heuristic"
	switch g.position(saltSolver, s, 10) {
	case 0:
		req.Backend, solver = "rectangle", "rectangle"
	case 1:
		if class != socgen.Large {
			req.Exhaustive, req.Bounded, solver = true, true, "bounded"
		}
	}
	lo := min(req.Width/16*16, 48)
	*draws = append(*draws, "class/"+class.String(), "solver/"+solver,
		fmt.Sprintf("width/%d-%d", lo, lo+15+lo/48), fmt.Sprintf("revision/%t", revised))
	return req, nil
}

func (g coldGen) call(i int) (call, error) {
	c := call{entry: -1}
	slot := firstSlot(i)
	if i%batchEvery != batchEvery-1 {
		req, err := g.item(slot, &c.draws)
		if err != nil {
			return call{}, err
		}
		body, err := json.Marshal(req)
		c.reqs, c.plans = []request{{kindPlan, body}}, 1
		return c, err
	}
	r := stream(g.seed, saltCall, uint64(i))
	dup := map[int]bool{}
	for _, p := range r.Perm(batchItems - 1)[:batchDups] {
		dup[p+1] = true
	}
	items := make([]service.PlanRequest, batchItems)
	for j := range items {
		if dup[j] {
			items[j] = items[r.IntN(j)]
			c.draws = append(c.draws, "duplicate/true")
			continue
		}
		req, err := g.item(slot, &c.draws)
		if err != nil {
			return call{}, err
		}
		slot++
		items[j] = req
		c.draws = append(c.draws, "duplicate/false")
	}
	body, err := json.Marshal(service.BatchRequest{Items: items})
	c.reqs, c.plans = []request{{kindBatch, body}}, batchItems
	return c, err
}

// hotRegistry are the named designs of the plan-hot working set.
var hotRegistry = []string{"p93791m", "d695m", "g1023m", "t512505m"}

// hotWidths are the widths of the plan-hot working set.
var hotWidths = []int{16, 32, 48, 64}

// hotEntry is one (design, width) point of the plan-hot working set,
// with every request body that asks for it: by registry name and as
// inline design JSON for named designs, inline only for generated ones.
type hotEntry struct {
	label string
	forms [][]byte
	draws [][]string // per form
}

// hotGen generates plan-hot: uniform draws over a working set of six
// designs at four widths that is the same for every seed, so only the
// order and the request forms vary with it.
type hotGen struct {
	seed    int64
	entries []hotEntry
}

func newHotGen(seed int64) (*hotGen, error) {
	type design struct {
		name   string
		inline []byte
	}
	var designs []design
	for _, name := range hotRegistry {
		d, err := registry.Lookup(name)
		if err != nil {
			return nil, err
		}
		inline, err := core.MarshalDesign(d)
		if err != nil {
			return nil, err
		}
		designs = append(designs, design{name, inline})
	}
	for k, class := range []socgen.Class{socgen.Small, socgen.Medium} {
		d, err := socgen.Generate(socgen.Options{Seed: int64(k + 1), Class: class})
		if err != nil {
			return nil, err
		}
		inline, err := core.MarshalDesign(d)
		if err != nil {
			return nil, err
		}
		designs = append(designs, design{"", inline})
	}

	g := &hotGen{seed: seed}
	for _, d := range designs {
		for _, w := range hotWidths {
			e := hotEntry{label: fmt.Sprintf("%s@%d", d.name, w)}
			forms := map[string]service.PlanRequest{"inline": {Design: d.inline, Width: w}}
			if d.name != "" {
				forms["name"] = service.PlanRequest{Benchmark: d.name, Width: w}
			}
			for _, src := range []string{"name", "inline"} {
				f, ok := forms[src]
				if !ok {
					continue
				}
				body, err := json.Marshal(f)
				if err != nil {
					return nil, err
				}
				e.forms = append(e.forms, body)
				e.draws = append(e.draws, []string{"source/" + src, fmt.Sprintf("width/%d", w)})
			}
			g.entries = append(g.entries, e)
		}
	}
	return g, nil
}

func (g *hotGen) call(i int) (call, error) {
	r := stream(g.seed, saltCall, uint64(i))
	e := r.IntN(len(g.entries))
	form := r.IntN(len(g.entries[e].forms))
	return call{reqs: []request{{kindPlan, g.entries[e].forms[form]}}, plans: 1, entry: e, draws: g.entries[e].draws[form]}, nil
}

// The Table 4 grid.
var (
	table4Widths = []int{32, 40, 48, 56, 64}
	table4WTs    = []float64{0.5, 0.25, 0.75}
)

// sweepGen generates sweep. Call i is one Table 4 comparison on a
// one-module revision of p93791m that no other call of the run repeats
// (the revision's pattern delta is 1+i): the grid solved by the
// heuristic, then by exhaustive search. One of the two goes through
// POST /v1/sweep and the other runs as a durable job; even calls send
// the heuristic synchronously, odd calls the exhaustive search.
type sweepGen struct {
	seed int64
	base []byte // canonical p93791m JSON
}

func newSweepGen(seed int64) (*sweepGen, error) {
	d, err := registry.Lookup("p93791m")
	if err != nil {
		return nil, err
	}
	base, err := core.MarshalDesign(d)
	if err != nil {
		return nil, err
	}
	return &sweepGen{seed: seed, base: base}, nil
}

func (g *sweepGen) call(i int) (call, error) {
	d, err := core.UnmarshalDesign(g.base)
	if err != nil {
		return call{}, err
	}
	if err := revise(d, stream(g.seed, saltCall, uint64(i)), 1+i); err != nil {
		return call{}, err
	}
	inline, err := core.MarshalDesign(d)
	if err != nil {
		return call{}, err
	}
	c := call{plans: 2 * len(table4Widths) * len(table4WTs), entry: -1}
	for _, exhaustive := range []bool{false, true} {
		body, err := json.Marshal(service.SweepRequest{Design: inline, Widths: table4Widths, WTs: table4WTs, Exhaustive: exhaustive})
		if err != nil {
			return call{}, err
		}
		r := request{kindSweep, body}
		if exhaustive == (i%2 == 0) {
			r.kind = kindJob
		}
		c.reqs = append(c.reqs, r)
	}
	c.draws = []string{fmt.Sprintf("heuristic-as-job/%t", i%2 == 1)}
	return c, nil
}

// shares turns a tally of draws into per-dimension shares:
// shares["class"]["small"] is the fraction of class draws that were
// small.
func shares(draws map[string]int) map[string]map[string]float64 {
	totals := map[string]int{}
	for d, n := range draws {
		dim, _, _ := strings.Cut(d, "/")
		totals[dim] += n
	}
	out := map[string]map[string]float64{}
	for d, n := range draws {
		dim, val, _ := strings.Cut(d, "/")
		if out[dim] == nil {
			out[dim] = map[string]float64{}
		}
		out[dim][val] = float64(n) / float64(totals[dim])
	}
	return out
}

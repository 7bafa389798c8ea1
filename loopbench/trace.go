package main

// The traced run. Spans are recorded from this package only, around the
// calls it makes into each layer's public functions; nothing inside the
// program under test is instrumented. The traced phase runs one client
// at GOMAXPROCS=1, so a span's allocation delta (read from the
// process-wide runtime.MemStats) is the work of that span alone.

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"math"
	"net/http"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mixsoc/internal/core"
	"mixsoc/internal/itc02"
	"mixsoc/internal/registry"
	"mixsoc/internal/service"
	"mixsoc/internal/tam"
	"mixsoc/internal/wrapper"
)

func memStats() runtime.MemStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms
}

// liveHeap forces a collection and returns the bytes still live.
func liveHeap() uint64 {
	runtime.GC()
	return memStats().HeapAlloc
}

// cost is time and allocations spent somewhere.
type cost struct {
	d      time.Duration
	allocs uint64
	bytes  uint64
}

func (c *cost) add(o cost) {
	c.d += o.d
	c.allocs += o.allocs
	c.bytes += o.bytes
}

// tap wraps the live server's handler; while on, it accumulates what
// ServeHTTP costs, so the traced client can subtract the server side
// from its round trip.
type tap struct {
	inner http.Handler
	on    atomic.Bool
	mu    sync.Mutex
	acc   cost
}

func (t *tap) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !t.on.Load() {
		t.inner.ServeHTTP(w, r)
		return
	}
	m0, t0 := memStats(), time.Now()
	t.inner.ServeHTTP(w, r)
	d, m1 := time.Since(t0), memStats()
	t.mu.Lock()
	t.acc.add(cost{d, m1.Mallocs - m0.Mallocs, m1.TotalAlloc - m0.TotalAlloc})
	t.mu.Unlock()
}

// take returns and resets the accumulated server-side cost.
func (t *tap) take() cost {
	t.mu.Lock()
	defer t.mu.Unlock()
	c := t.acc
	t.acc = cost{}
	return c
}

// span is one timed call into a layer. Spans of one benchmark call
// share call; parent links a span to the span open around it.
type span struct {
	name   string
	call   int
	parent int // index into recorder.spans, -1 for a root
	start  time.Time
	cost   // inclusive of child spans
	// allocation counters when the span began
	mallocs0, bytes0 uint64
}

// recorder keeps the spans of the traced phase in memory. It is used
// from one goroutine.
type recorder struct {
	spans []span
	open  []int
	call  int
}

func (r *recorder) begin(name string) {
	parent := -1
	if n := len(r.open); n > 0 {
		parent = r.open[n-1]
	}
	r.spans = append(r.spans, span{name: name, call: r.call, parent: parent})
	r.open = append(r.open, len(r.spans)-1)
	s := &r.spans[len(r.spans)-1]
	ms := memStats()
	s.mallocs0, s.bytes0 = ms.Mallocs, ms.TotalAlloc
	s.start = time.Now()
}

func (r *recorder) end() {
	s := &r.spans[r.open[len(r.open)-1]]
	r.open = r.open[:len(r.open)-1]
	s.d = time.Since(s.start)
	m1 := memStats()
	s.allocs, s.bytes = m1.Mallocs-s.mallocs0, m1.TotalAlloc-s.bytes0
}

// add records a span measured elsewhere.
func (r *recorder) add(name string, c cost) {
	r.spans = append(r.spans, span{name: name, call: r.call, parent: -1, cost: c})
}

// totals sums the spans by name, inclusive and self (inclusive minus
// the spans directly inside).
func (r *recorder) totals() (incl, self map[string]cost) {
	incl, self = map[string]cost{}, map[string]cost{}
	children := make([]cost, len(r.spans))
	for _, s := range r.spans {
		if s.parent >= 0 {
			children[s.parent].add(s.cost)
		}
	}
	for k, s := range r.spans {
		in, sf := incl[s.name], self[s.name]
		in.add(s.cost)
		sf.add(cost{s.d - children[k].d, s.allocs - children[k].allocs, s.bytes - children[k].bytes})
		incl[s.name], self[s.name] = in, sf
	}
	return incl, self
}

// spanPacker is the tam.Packer the traced planner packs through: it
// times each pack of the selected backend and remembers the job count
// and the sharing configuration the pack was for.
type spanPacker struct {
	inner tam.Packer
	rec   *recorder
	packs []packInfo
}

type packInfo struct {
	jobs   int
	config string
}

func (p *spanPacker) Name() string { return p.inner.Name() }

func (p *spanPacker) Pack(jobs []*tam.Job, width int, opts ...tam.Option) (*tam.Schedule, error) {
	p.rec.begin("tam.pack")
	s, err := p.inner.Pack(jobs, width, opts...)
	p.rec.end()
	p.packs = append(p.packs, packInfo{jobs: len(jobs), config: jobsConfig(jobs)})
	return s, err
}

// jobsConfig names the sharing configuration a job set packs: the
// analog cores grouped by the serialization group of their tests.
func jobsConfig(jobs []*tam.Job) string {
	groups := map[string][]string{}
	for _, j := range jobs {
		if j.Group == "" {
			continue
		}
		coreName, _, _ := strings.Cut(j.ID, "/")
		if g := groups[j.Group]; len(g) == 0 || g[len(g)-1] != coreName {
			groups[j.Group] = append(g, coreName)
		}
	}
	var sets []string
	for _, g := range groups {
		sets = append(sets, canonicalSet(g))
	}
	sort.Strings(sets)
	return strings.Join(sets, "|")
}

// bestConfig names a plan's selected configuration the way jobsConfig
// names a pack's.
func bestConfig(d *core.Design, res *core.Result) string {
	var sets []string
	for _, g := range res.Best.Partition {
		names := make([]string, len(g))
		for k, ci := range g {
			names[k] = d.Analog[ci].Name
		}
		sets = append(sets, canonicalSet(names))
	}
	sort.Strings(sets)
	return strings.Join(sets, "|")
}

func canonicalSet(names []string) string {
	s := append([]string(nil), names...)
	sort.Strings(s)
	return strings.Join(s, ",")
}

// maxSessions mirrors the engine's default design-session bound.
const maxSessions = 8

// session is the traced path's cache state for one design, wired like
// an engine session: a staircase cache shared through a module store,
// and one schedule cache per (width, backend).
type session struct {
	design      *core.Design
	digitalHash string
	stairs      *wrapper.StaircaseCache
	caches      map[string]*core.ScheduleCache
	lastUse     int
}

// layers runs plans through the public functions of each layer, one
// span per call, with caches built the way the engine builds them.
type layers struct {
	rec      *recorder
	store    *wrapper.ModuleStairStore
	digital  *core.DigitalJobsCache
	sessions map[string]*session
	clock    int
	n        layerCounts
}

// layerCounts are the traced plans' counters.
type layerCounts struct {
	plans                   int
	neval, pruned, cands    int
	packs, packJobs, onBest int
	mismatches              int
	firstMismatch           error
}

func newLayers(rec *recorder) *layers {
	return &layers{
		rec:      rec,
		store:    wrapper.NewModuleStairStore(64, 4096),
		digital:  core.NewDigitalJobsCache(128),
		sessions: map[string]*session{},
	}
}

// resolve is the traced design resolution and hash of one request.
func (l *layers) resolve(inline []byte, benchmark string) (*session, string, error) {
	l.rec.begin("core.resolve")
	var d *core.Design
	var err error
	if len(inline) > 0 {
		d, err = core.UnmarshalDesign(inline)
	} else {
		d, err = registry.Lookup(benchmark)
	}
	l.rec.end()
	if err != nil {
		return nil, "", err
	}
	l.rec.begin("core.hash")
	hash, err := core.DesignHash(d)
	l.rec.end()
	if err != nil {
		return nil, "", err
	}
	return l.session(hash, d), hash, nil
}

func (l *layers) session(hash string, d *core.Design) *session {
	l.clock++
	if s := l.sessions[hash]; s != nil {
		s.lastUse = l.clock
		return s
	}
	s := &session{design: d, stairs: wrapper.NewStaircaseCache(64), caches: map[string]*core.ScheduleCache{}, lastUse: l.clock}
	s.stairs.Share(l.store, func(m *itc02.Module) string {
		h, err := core.ModuleHash(m)
		if err != nil {
			return ""
		}
		return h
	})
	s.digitalHash, _ = core.DigitalHash(d) // an empty key only opts out of sharing
	l.sessions[hash] = s
	if len(l.sessions) > maxSessions {
		oldest := ""
		for h, c := range l.sessions {
			if oldest == "" || c.lastUse < l.sessions[oldest].lastUse {
				oldest = h
			}
		}
		delete(l.sessions, oldest)
	}
	return s
}

// plan runs one plan through the layers and checks its cost bits and
// selected configuration against want, the served result.
func (l *layers) plan(s *session, width int, w core.Weights, exhaustive, bounded bool, backend string, want *core.Result) error {
	l.rec.begin("wrapper.stairs")
	for _, m := range s.design.Digital.Cores() {
		if _, err := s.stairs.Pareto(m, width); err != nil {
			l.rec.end()
			return err
		}
	}
	l.rec.end()
	l.rec.begin("core.jobs")
	_, err := core.DigitalJobsWith(s.design, width, s.stairs)
	l.rec.end()
	if err != nil {
		return err
	}
	l.rec.begin("partition.candidates")
	s.design.Candidates(nil)
	l.rec.end()

	inner, err := core.PackerFor(backend)
	if err != nil {
		return err
	}
	if inner == nil {
		inner = tam.OccupancyPacker{}
	}
	key := fmt.Sprintf("%d/%s", width, backend)
	if s.caches[key] == nil {
		s.caches[key] = core.NewScheduleCache()
	}
	sp := &spanPacker{inner: inner, rec: l.rec}
	pl := core.NewPlanner(s.design, width, w)
	pl.Cache = s.caches[key]
	pl.Staircases = s.stairs
	pl.Digital, pl.DigitalKey = l.digital, s.digitalHash
	pl.Workers = 1
	pl.Bounded = bounded
	pl.Packer = sp
	l.rec.begin("core.plan")
	var res *core.Result
	if exhaustive {
		res, err = pl.ExhaustiveContext(context.Background())
	} else {
		res, err = pl.CostOptimizerContext(context.Background())
	}
	l.rec.end()
	if err != nil {
		return err
	}

	l.n.plans++
	l.n.neval += res.NEval
	l.n.pruned += res.Pruned
	l.n.cands += res.Candidates
	best := bestConfig(s.design, res)
	for _, p := range sp.packs {
		l.n.packs++
		l.n.packJobs += p.jobs
		if p.config == best {
			l.n.onBest++
		}
	}
	if want == nil || math.Float64bits(res.Best.Cost) != math.Float64bits(want.Best.Cost) ||
		!reflect.DeepEqual(res.Best.Partition, want.Best.Partition) {
		l.n.mismatches++
		if l.n.firstMismatch == nil {
			l.n.firstMismatch = fmt.Errorf("traced plan of %s at W=%d: cost or selection differs from the served plan", s.design.Name, width)
		}
	}
	return nil
}

// tracer runs the traced phase: each call is sent once over HTTP, once
// through a twin server's exported path, and once through the layers.
type tracer struct {
	h      *harness
	twin   *service.Server
	rec    *recorder
	layers *layers

	calls, failed int
	syncReqs      int // requests whose work all runs inside the handler: not durable jobs
	respBytes     int
	rtt           []float64 // ms
	firstErr      error
}

// reset forgets what was traced so far (the warm-up) and keeps the
// caches.
func (t *tracer) reset() {
	t.rec.spans = nil
	t.layers.n = layerCounts{}
	t.calls, t.failed, t.syncReqs, t.respBytes, t.rtt, t.firstErr = 0, 0, 0, 0, nil, nil
}

func newTracer(h *harness, twin *service.Server) *tracer {
	rec := &recorder{}
	return &tracer{h: h, twin: twin, rec: rec, layers: newLayers(rec)}
}

func (t *tracer) fail(err error) {
	t.failed++
	if t.firstErr == nil {
		t.firstErr = err
	}
}

// run traces calls first, first+1, ... until d has passed.
func (t *tracer) run(g generator, first int, d time.Duration) error {
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	t.h.tap.on.Store(true)
	defer t.h.tap.on.Store(false)
	for i, stop := first, time.Now().Add(d); time.Now().Before(stop); i++ {
		c, err := g.call(i)
		if err != nil {
			return fmt.Errorf("generating call %d: %w", i, err)
		}
		t.trace(i, c)
	}
	return nil
}

func (t *tracer) trace(i int, c call) {
	t.calls++
	t.rec.call = i
	var bodies [][]byte
	var rtt time.Duration
	for _, r := range c.reqs {
		t.h.tap.take()
		m0, t0 := memStats(), time.Now()
		body, err := t.h.send(r)
		d, m1 := time.Since(t0), memStats()
		srv := t.h.tap.take()
		rtt += d
		if err != nil {
			t.fail(fmt.Errorf("call %d: %w", i, err))
			return
		}
		bodies = append(bodies, body)
		if r.kind != kindJob {
			// A job plans in a runner outside every handler, so its
			// server side cannot be taken out of the round trip.
			t.syncReqs++
			t.rec.add("service.transport", cost{d - srv.d, m1.Mallocs - m0.Mallocs - srv.allocs, m1.TotalAlloc - m0.TotalAlloc - srv.bytes})
		}
	}
	t.rtt = append(t.rtt, float64(rtt)/float64(time.Millisecond))
	sum, size := digest(bodies)
	t.respBytes += size

	var buf bytes.Buffer
	for _, r := range c.reqs {
		t.rec.begin("service.handler")
		resp, results, failedItems, err := exported(context.Background(), t.twin, r)
		t.rec.end()
		if err != nil || failedItems > 0 {
			t.fail(fmt.Errorf("call %d: exported path: %v (%d failed items)", i, err, failedItems))
			return
		}
		t.rec.begin("service.encode")
		err = service.WriteJSON(&buf, resp)
		t.rec.end()
		if err != nil {
			t.fail(fmt.Errorf("call %d: encoding: %w", i, err))
			return
		}
		if err := t.planLayers(r, resp, results); err != nil {
			t.fail(fmt.Errorf("call %d: layers: %w", i, err))
			return
		}
	}
	if sha256.Sum256(buf.Bytes()) != sum {
		t.fail(fmt.Errorf("call %d: response bytes differ from the exported path's", i))
	}
}

// planLayers replays every plan of request r through the layers.
func (t *tracer) planLayers(r request, resp any, results []*core.Result) error {
	switch resp := resp.(type) {
	case *service.PlanResponse:
		req, err := decode[service.PlanRequest](r.body)
		if err != nil {
			return err
		}
		return t.planItem(req, results[0], resp.DesignHash)
	case *service.BatchResponse:
		req, err := decode[service.BatchRequest](r.body)
		if err != nil {
			return err
		}
		for k, item := range req.Items {
			if err := t.planItem(item, results[k], resp.Items[k].Response.DesignHash); err != nil {
				return err
			}
		}
		return nil
	case *service.SweepResponse:
		req, err := decode[service.SweepRequest](r.body)
		if err != nil {
			return err
		}
		s, hash, err := t.layers.resolve(req.Design, req.Benchmark)
		if err != nil {
			return err
		}
		if hash != resp.DesignHash {
			return fmt.Errorf("design hash %s, served %s", hash, resp.DesignHash)
		}
		for k, p := range resp.Points {
			if err := t.layers.plan(s, p.Width, p.Weights, req.Exhaustive, req.Bounded, req.Backend, results[k]); err != nil {
				return err
			}
		}
		return nil
	}
	return fmt.Errorf("unexpected response %T", resp)
}

func (t *tracer) planItem(req service.PlanRequest, want *core.Result, servedHash string) error {
	s, hash, err := t.layers.resolve(req.Design, req.Benchmark)
	if err != nil {
		return err
	}
	if hash != servedHash {
		return fmt.Errorf("design hash %s, served %s", hash, servedHash)
	}
	wt := 0.5
	if req.WT != nil {
		wt = *req.WT
	}
	return t.layers.plan(s, req.Width, core.Weights{Time: wt, Area: 1 - wt}, req.Exhaustive, req.Bounded, req.Backend, want)
}

// perLayer turns the recorded spans into the per-layer metrics.
// Service spans are per call; every other layer's are per plan.
func (t *tracer) perLayer() map[string]metric {
	incl, self := t.rec.totals()
	m := map[string]metric{}
	put := func(metricName string, c cost, per int) {
		m[metricName+"_ms"] = metric{ratio(float64(c.d)/float64(time.Millisecond), float64(per)), "ms"}
		m[metricName+"_allocs"] = metric{ratio(float64(c.allocs), float64(per)), "allocs/op"}
		m[metricName+"_bytes"] = metric{ratio(float64(c.bytes), float64(per)), "B/op"}
	}
	put("service.handler", incl["service.handler"], t.calls)
	put("service.encode", incl["service.encode"], t.calls)
	put("service.transport", incl["service.transport"], t.syncReqs)
	l := t.layers
	for _, n := range []string{"core.resolve", "core.hash", "core.jobs", "core.plan", "wrapper.stairs", "partition.candidates", "tam.pack"} {
		put(n, incl[n], l.n.plans)
	}
	put("core.plan_self", self["core.plan"], l.n.plans)
	m["service.resp_kb"] = metric{ratio(float64(t.respBytes)/1024, float64(t.calls)), "KB"}
	m["core.neval_per_plan"] = metric{ratio(float64(l.n.neval), float64(l.n.plans)), "count"}
	m["core.pruned_per_plan"] = metric{ratio(float64(l.n.pruned), float64(l.n.plans)), "count"}
	m["core.candidates_per_plan"] = metric{ratio(float64(l.n.cands), float64(l.n.plans)), "count"}
	m["tam.packs_per_plan"] = metric{ratio(float64(l.n.packs), float64(l.n.plans)), "count"}
	m["tam.jobs_per_pack"] = metric{ratio(float64(l.n.packJobs), float64(l.n.packs)), "count"}
	m["tam.best_pack_ratio"] = metric{ratio(float64(l.n.onBest), float64(l.n.packs)), "ratio"}
	return m
}

// cacheRatios reads the engine's hit ratios over a window from the
// counters before and after it.
func cacheRatios(before, after core.EngineMetrics) map[string]metric {
	hit := func(h0, m0, h1, m1 uint64) metric {
		return metric{ratio(float64(h1-h0), float64(h1-h0+m1-m0)), "ratio"}
	}
	return map[string]metric{
		"core.design_hit_ratio": hit(before.DesignHits, before.DesignMisses, after.DesignHits, after.DesignMisses),
		"core.schedule_hit_ratio": hit(before.ScheduleTotal.Hits, before.ScheduleTotal.Misses,
			after.ScheduleTotal.Hits, after.ScheduleTotal.Misses),
		"core.digital_jobs_hit_ratio": hit(before.DigitalJobs.Hits, before.DigitalJobs.Misses,
			after.DigitalJobs.Hits, after.DigitalJobs.Misses),
		"wrapper.module_stairs_hit_ratio": hit(before.ModuleStairs.Hits, before.ModuleStairs.Misses,
			after.ModuleStairs.Hits, after.ModuleStairs.Misses),
	}
}

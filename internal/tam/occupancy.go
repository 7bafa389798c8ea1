package tam

import (
	"cmp"
	"math"
	"math/bits"
	"slices"
	"sort"

	"mixsoc/internal/wrapper"
)

// fitter answers earliest-fit queries against a schedule's placements
// with a single time sweep per query instead of the per-candidate full
// rescans of the naive formulation. One fitter serves one packing
// goroutine and mirrors one schedule at a time: it owns the schedule's
// start- and end-sorted edge lists plus reusable scratch buffers (a
// per-wire occupancy profile and a busy bitset), so steady-state queries
// allocate nothing. The per-job width options (the Pareto staircase, or
// the full staircase under WithFullStaircase) are precomputed once per
// Optimize call and shared read-only between fitters.
//
// Three speedups over the naive rescan live here:
//
//   - the edge lists are kept sorted as the schedule changes: reset
//     builds them once, and place and take — the only ways the packing
//     loops add or remove a placement — insert by binary search and drop
//     by one filtering pass, so no query ever sorts;
//   - the candidate start times of a query (0, each placed rectangle's
//     end, and each start minus the query duration) are not collected
//     and sorted per width option; they are generated in ascending
//     order by merging the two edge lists (candGen), whose inline time
//     and band keys the sweep reads without touching the placements;
//   - the band search maintains a busy bitset alongside the per-wire
//     counters, admits a placement's whole band with one word-OR per
//     word (setBand), and finds the lowest free band a word at a time
//     (see lowestFreeRun), for every bin width. A per-wire counter scan
//     survives only in the tests, as the oracle FuzzBitmaskFitter
//     checks this sweep against.
type fitter struct {
	binWidth int
	cfg      config

	// opts maps each job to its candidate width options, precomputed by
	// newOptionTable. Read-only after construction; safe to share.
	opts map[*Job][]wrapper.Point

	// Edge lists of the mirrored schedule, one edge per placement each,
	// ascending by time. Only reset, place and take change them.
	starts []edge // t = Start
	ends   []edge // t = End

	// Scratch buffers, reused across queries.
	occ  []int32  // occupancy count per wire during the sweep window
	busy []uint64 // bit per wire: set iff its occ count is nonzero
}

// edge is one side of a placement's time interval as the sweep sees it:
// the start or end time, the placement's index in the schedule, and its
// wire band [lo, lo+w). The order among edges of equal time affects no
// answer, since every edge of one time crosses the window boundary in
// the same sweep step.
type edge struct {
	t     int64
	i     int32
	lo, w int32
}

// newOptionTable precomputes the width options the packer will try for
// every job, so placement loops never re-derive (and re-allocate) the
// usable staircase.
func newOptionTable(jobs []*Job, binWidth int, cfg config) map[*Job][]wrapper.Point {
	opts := make(map[*Job][]wrapper.Point, len(jobs))
	for _, j := range jobs {
		opts[j] = candidateWidths(j, binWidth, cfg)
	}
	return opts
}

// newFitter sizes the edge lists for every job of the option table, so
// place never grows them.
func newFitter(opts map[*Job][]wrapper.Point, binWidth int, cfg config) *fitter {
	return &fitter{
		binWidth: binWidth,
		cfg:      cfg,
		opts:     opts,
		starts:   make([]edge, 0, len(opts)),
		ends:     make([]edge, 0, len(opts)),
		occ:      make([]int32, binWidth),
		busy:     make([]uint64, (binWidth+63)/64),
	}
}

// fork returns a fitter sharing the read-only option table but owning
// fresh edge lists and scratch buffers, for use by a concurrent packing
// goroutine.
func (f *fitter) fork() *fitter { return newFitter(f.opts, f.binWidth, f.cfg) }

// reset makes the fitter mirror placements, rebuilding both edge lists
// from scratch. Every packing loop calls it once on entry; from then on
// the schedule may change only through place and take.
func (f *fitter) reset(placements []Placement) {
	f.starts, f.ends = f.starts[:0], f.ends[:0]
	for i := range placements {
		p := &placements[i]
		f.starts = append(f.starts, edgeOf(p, i, p.Start))
		f.ends = append(f.ends, edgeOf(p, i, p.End))
	}
	slices.SortFunc(f.starts, byTime)
	slices.SortFunc(f.ends, byTime)
}

// place appends p to the schedule's placements and inserts its edges
// in order.
func (f *fitter) place(s *Schedule, p Placement) {
	i := len(s.Placements)
	s.Placements = append(s.Placements, p)
	f.starts = insertEdge(f.starts, edgeOf(&p, i, p.Start))
	f.ends = insertEdge(f.ends, edgeOf(&p, i, p.End))
}

// take swap-removes placement i from the schedule (the last placement
// moves into slot i), drops i's edges, relabels the moved placement's,
// and returns the removed placement.
func (f *fitter) take(s *Schedule, i int) Placement {
	p := s.Placements[i]
	last := len(s.Placements) - 1
	s.Placements[i] = s.Placements[last]
	s.Placements = s.Placements[:last]
	f.starts = dropEdge(f.starts, int32(i), int32(last))
	f.ends = dropEdge(f.ends, int32(i), int32(last))
	return p
}

func edgeOf(p *Placement, i int, t int64) edge {
	return edge{t: t, i: int32(i), lo: int32(p.WireLo), w: int32(p.Width)}
}

func byTime(a, b edge) int { return cmp.Compare(a.t, b.t) }

// insertEdge inserts e after every edge of time <= e.t.
func insertEdge(es []edge, e edge) []edge {
	k := sort.Search(len(es), func(k int) bool { return es[k].t > e.t })
	return slices.Insert(es, k, e)
}

// dropEdge removes the edge of placement i and relabels placement
// last's edge to i, in one order-preserving pass.
func dropEdge(es []edge, i, last int32) []edge {
	out := es[:0]
	for _, e := range es {
		if e.i == i {
			continue
		}
		if e.i == last {
			e.i = i
		}
		out = append(out, e)
	}
	return out
}

// candGen yields the candidate start times of one earliest-fit query in
// strictly ascending order: 0, then the ends of placed rectangles and
// their starts minus the query duration (a window can also become
// feasible right before a rectangle begins) — the same candidate set as
// a full collect-and-sort, produced by merging the already-sorted
// starts and ends edge lists with two monotone cursors. Since the lists
// stay sorted across queries, the duration-dependent candidate stream
// costs O(n) per width option and no query sorts at all.
type candGen struct {
	starts, ends []edge
	dur          int64
	ce, cs       int // cursors into ends / starts
}

// next returns the smallest candidate strictly greater than t, or
// math.MaxInt64 when exhausted.
func (g *candGen) next(t int64) int64 {
	for g.ce < len(g.ends) && g.ends[g.ce].t <= t {
		g.ce++
	}
	for g.cs < len(g.starts) && g.starts[g.cs].t-g.dur <= t {
		g.cs++
	}
	nxt := int64(math.MaxInt64)
	if g.ce < len(g.ends) {
		nxt = g.ends[g.ce].t
	}
	if g.cs < len(g.starts) {
		if s := g.starts[g.cs].t - g.dur; s < nxt {
			nxt = s
		}
	}
	return nxt
}

// earliestFit returns the earliest start time (and lowest wire band) at
// which a w×dur rectangle for job j fits among the placements: no wire
// conflicts and no time overlap with j's serialization group. The
// fitter must mirror placements (see reset). Candidates greater than
// limit are not considered: callers pass the largest start that could
// still matter to them, which prunes the sweep without changing any
// answer they act on.
//
// The candidates are visited in ascending order while two monotone
// cursors maintain the set of placements overlapping the moving window
// [t, t+dur) as a per-wire occupancy profile plus a count of active
// same-group placements, making each candidate check O(1) for the group
// constraint. The per-wire counters are needed because two placements
// may cover the same wire at different times within one window; a busy
// bitset tracks which wires have a nonzero count, so the band search at
// each candidate walks it a word at a time (lowestFreeRun): O(W/64)
// word steps plus one step per free/busy transition instead of an O(W)
// per-wire scan.
func (f *fitter) earliestFit(j *Job, w int, dur int64, placements []Placement, limit int64) (int64, int, bool) {
	starts, ends := f.starts, f.ends
	n := len(starts)
	group := j.Group

	occ := f.occ[:f.binWidth]
	clear(occ)
	busy := f.busy
	clear(busy)
	groupActive := 0
	si, ei := 0, 0
	gen := candGen{starts: starts, ends: ends, dur: dur}
	for t := int64(0); t <= limit; {
		// Admit placements entering the window: Start < t+dur. A
		// placement that also already ended (End <= t) is retired by the
		// second cursor in the same step, so the profile stays exact.
		// Every wire of an admitted band is busy afterwards, so the
		// bitset takes the whole band at once.
		for si < n && starts[si].t < t+dur {
			e := &starts[si]
			band := occ[e.lo : e.lo+e.w]
			for k := range band {
				band[k]++
			}
			setBand(busy, int(e.lo), int(e.w))
			if group != "" && placements[e.i].Job.Group == group {
				groupActive++
			}
			si++
		}
		for ei < n && ends[ei].t <= t {
			e := &ends[ei]
			band := occ[e.lo : e.lo+e.w]
			for k := range band {
				band[k]--
				if band[k] == 0 {
					wire := int(e.lo) + k
					busy[wire>>6] &^= 1 << uint(wire&63)
				}
			}
			if group != "" && placements[e.i].Job.Group == group {
				groupActive--
			}
			ei++
		}
		if groupActive == 0 {
			if lo := lowestFreeRun(busy, f.binWidth, w); lo >= 0 {
				return t, lo, true
			}
		}
		nt := gen.next(t)
		if nt == math.MaxInt64 {
			break
		}
		t = nt
	}
	return 0, 0, false
}

// setBand sets bits [lo, lo+w) of the bitset, one word-OR per word the
// band touches.
func setBand(busy []uint64, lo, w int) {
	for w > 0 {
		off := lo & 63
		n := 64 - off
		if n > w {
			n = w
		}
		busy[lo>>6] |= (^uint64(0) >> uint(64-n)) << uint(off)
		lo += n
		w -= n
	}
}

// lowestFreeRun returns the lowest wire index starting a run of w free
// (zero) bits in the busy bitset, or -1 if no such band exists below
// binWidth. Runs may span word boundaries; fully free and fully busy
// words are consumed in one step, and mixed words advance one free/busy
// transition at a time via trailing-zero counts, matching the counter
// scan's first-run answer exactly.
func lowestFreeRun(busy []uint64, binWidth, w int) int {
	run := 0 // free run ending just before the current position
	for wi := range busy {
		base := wi << 6
		valid := binWidth - base
		if valid > 64 {
			valid = 64
		}
		free := ^busy[wi]
		if valid < 64 {
			free &= 1<<uint(valid) - 1
		}
		if free == 0 {
			run = 0
			continue
		}
		if valid == 64 && free == ^uint64(0) {
			if run+64 >= w {
				return base - run
			}
			run += 64
			continue
		}
		for off := 0; off < valid; {
			x := free >> uint(off)
			if x&1 == 0 {
				z := bits.TrailingZeros64(x)
				if z > valid-off {
					z = valid - off
				}
				off += z
				run = 0
				continue
			}
			ones := bits.TrailingZeros64(^x)
			if ones > valid-off {
				ones = valid - off
			}
			if run+ones >= w {
				return base + off - run
			}
			run += ones
			off += ones
		}
	}
	return -1
}

// bestPlacement finds the placement of j minimizing (end, width, start,
// wire) against the current placements. The fitter's edge lists serve
// every width option of the job; options whose bare
// duration already exceeds the incumbent end are skipped, and each
// option's sweep stops at the last start that could still tie the
// incumbent — both prunes are exact under the (end, width, start, wire)
// order, so the chosen placement is identical to an unpruned search.
// The fitter must mirror placements (see reset).
func (f *fitter) bestPlacement(j *Job, placements []Placement) (Placement, bool) {
	var best Placement
	found := false
	better := func(p Placement) bool {
		if !found {
			return true
		}
		if p.End != best.End {
			return p.End < best.End
		}
		if p.Width != best.Width {
			return p.Width < best.Width
		}
		if p.Start != best.Start {
			return p.Start < best.Start
		}
		return p.WireLo < best.WireLo
	}

	for _, opt := range f.opts[j] {
		limit := int64(math.MaxInt64)
		if found {
			if opt.Time > best.End {
				continue // even a start at 0 ends after the incumbent
			}
			limit = best.End - opt.Time
		}
		t, wireLo, ok := f.earliestFit(j, opt.Width, opt.Time, placements, limit)
		if !ok {
			continue
		}
		p := Placement{Job: j, Width: opt.Width, Start: t, End: t + opt.Time, WireLo: wireLo}
		if better(p) {
			best = p
			found = true
		}
	}
	return best, found
}

package tam

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"mixsoc/internal/wrapper"
)

// Option configures Optimize.
type Option func(*config)

type config struct {
	improvePasses int
	paretoOnly    bool
	warm          []*Schedule
	ctx           context.Context
	prefix        *PrefixStore
}

// ctxErr reports the config's context error, treating a nil context as
// never cancelled. It is the single cancellation probe of the packing
// loops.
func (c *config) ctxErr() error {
	if c.ctx == nil {
		return nil
	}
	return c.ctx.Err()
}

// WithImprovePasses bounds the post-packing improvement loop; 0 disables
// it (used by the ablation benches). The default is one pass per job.
func WithImprovePasses(n int) Option {
	return func(c *config) { c.improvePasses = n }
}

// WithFullStaircase makes the packer consider every width from the
// narrowest option up to the bin width, synthesizing flat staircase
// steps, instead of only the strictly-improving Pareto points. It exists
// to measure the value of Pareto pruning; it never improves the result.
func WithFullStaircase() Option {
	return func(c *config) { c.paretoOnly = false }
}

// WithWarmStart seeds the packing with a schedule of the same job set
// from an adjacent bin. A seed from a narrower (or equal-width) bin is
// feasible verbatim in this bin, so the optimizer adopts its placements
// — matching jobs by ID and re-deriving durations from the current
// staircases — and goes straight to the repack/improve polish, which
// re-places every job against the wider bin, instead of packing three
// orderings from scratch. A seed from a wider bin cannot be adopted
// verbatim (its placements may overflow the narrower bin); instead the
// jobs are re-placed earliest-fit in the seed's placement order, a
// single guided packing that inherits the seed's structure at a third
// of the cold cost. A seed that does not match the job set (different
// IDs, or widths outside the staircase) is ignored, so a stale seed can
// never corrupt a result; with no usable seed the packer falls back to
// the cold path.
//
// The option may be given several times — e.g. the nearest completed
// width on either side of a sweep — in which case every seed is adopted
// (or adapted) and the one with the smallest pre-polish makespan wins,
// earlier options winning ties.
//
// Warm-started packing follows a different search trajectory than cold
// packing: makespans stay close (the polish loops are shared and
// monotone) but are not guaranteed identical. Sweep drivers that must
// reproduce cold results exactly — the paper-table reproductions — must
// not use it; see core.SweepOptions.WarmStart for the opt-in chaining.
func WithWarmStart(seed *Schedule) Option {
	return func(c *config) { c.warm = append(c.warm, seed) }
}

// WithContext makes the packing cancellable: the placement loops poll
// ctx between jobs and Optimize returns ctx.Err() once it fires. A nil
// ctx (and the zero option value) means never cancelled.
func WithContext(ctx context.Context) Option {
	return func(c *config) { c.ctx = ctx }
}

// Optimize packs the jobs into a TAM of the given width and returns a
// validated schedule. The heuristic follows the rectangle-packing
// formulation: jobs are considered longest-first, each is placed at the
// position and width option minimizing its finish time (preferring
// narrower widths on ties), and a bounded improvement loop then re-places
// the jobs that define the makespan, letting them widen into idle wires.
// The winning schedule then gets the repack + improve polish, unless
// improve moved nothing in it: a purely greedy winner is already a fixed
// point of both loops, so skipping them leaves every placement as is.
// A warm-started packing always gets the polish.
//
// The three complementary packing orderings are independent, so they run
// concurrently; the winner is chosen deterministically (smallest
// makespan, first ordering on ties), making the result identical to a
// sequential evaluation. Under WithPrefixStore each ordering's greedy
// pass resumes after the longest prefix of its job order the store
// already holds, which changes no placement.
func Optimize(jobs []*Job, width int, opts ...Option) (*Schedule, error) {
	cfg := config{improvePasses: len(jobs), paretoOnly: true}
	for _, o := range opts {
		o(&cfg)
	}
	if width < 1 {
		return nil, fmt.Errorf("tam: bin width %d < 1", width)
	}
	if len(jobs) == 0 {
		return &Schedule{Width: width}, nil
	}
	if err := validateJobs(jobs, width); err != nil {
		return nil, err
	}

	shared := newFitter(newOptionTable(jobs, width, cfg), width, cfg)

	if err := cfg.ctxErr(); err != nil {
		return nil, err
	}

	// A usable warm seed replaces the three cold packing orderings: the
	// adopted (narrower seed) or re-placed (wider seed) schedule is
	// already feasible at this width, so the repack/improve polish — the
	// same loops the cold path runs on its winner — does all remaining
	// work, with repack letting every job widen into the new wires. With
	// several seeds the cheapest pre-polish makespan wins, earlier seeds
	// winning ties.
	if len(cfg.warm) > 0 {
		var adopted *Schedule
		for _, seed := range cfg.warm {
			s := adoptSeed(jobs, width, seed)
			if s == nil {
				s = shrinkSeed(jobs, width, seed, shared)
			}
			if s != nil && (adopted == nil || s.Makespan < adopted.Makespan) {
				adopted = s
			}
		}
		if adopted != nil {
			if cfg.improvePasses > 0 {
				repack(adopted, shared)
				improve(adopted, shared)
			}
			if err := cfg.ctxErr(); err != nil {
				return nil, err
			}
			if err := adopted.Validate(); err != nil {
				return nil, fmt.Errorf("tam: internal error: produced invalid schedule: %w", err)
			}
			return adopted, nil
		}
	}

	best, moved, err := packCold(jobs, width, shared)
	if err != nil {
		return nil, err
	}

	// Polish only the winning schedule: repack re-places every job, so
	// running it per ordering buys little for its cost. A winner improve
	// left untouched is purely greedy, and then the polish is the
	// identity: each job was placed at its best placement given only the
	// jobs packed before it, every other job only shrinks its feasible
	// region, and its current placement stays in that region — so
	// bestPlacement returns it again, ties included.
	// TestRepackIdentityOnGreedyWinners pins this. (With improvePasses
	// 0, improve never moves a job, so the polish is off as asked.)
	if moved {
		repack(best, shared)
		improve(best, shared)
	}

	if err := cfg.ctxErr(); err != nil {
		return nil, err
	}
	if err := best.Validate(); err != nil {
		return nil, fmt.Errorf("tam: internal error: produced invalid schedule: %w", err)
	}
	return best, nil
}

// packCold is the cold path of Optimize up to the choice of winner: it
// packs the three orderings concurrently, each on its own fork of f,
// and returns the winning schedule unpolished, with whether improve
// moved a job in it.
func packCold(jobs []*Job, width int, f *fitter) (*Schedule, bool, error) {
	target := LowerBound(jobs, width)

	// Serialization groups behave like one long chain: one useful weight
	// for a job is its whole group's serial time rather than its own
	// (often short) time, or the chain ends up in a tail behind a
	// tightly packed bin.
	groupTotal := map[string]int64{}
	for _, j := range jobs {
		if j.Group != "" {
			groupTotal[j.Group] += j.minTime(width)
		}
	}
	// Per-job sort keys, precomputed so the ordering comparators do no
	// staircase walks (and no allocations) inside sort.
	prefTimes := make(map[*Job]int64, len(jobs))
	volumes := make(map[*Job]int64, len(jobs))
	for _, j := range jobs {
		prefTimes[j] = timeFor(j, preferredWidth(j, width, target))
		volumes[j] = j.volume(width)
	}
	chainWeight := func(j *Job) int64 {
		if j.Group != "" {
			return groupTotal[j.Group]
		}
		return prefTimes[j]
	}

	// Greedy list scheduling is sensitive to the job order; pack with a
	// few complementary orderings and keep the best schedule. All
	// orderings share deterministic tie-breaking by ID.
	orderings := []func(j *Job) int64{
		chainWeight,
		func(j *Job) int64 { return prefTimes[j] },
		func(j *Job) int64 { return volumes[j] },
	}

	results := make([]*Schedule, len(orderings))
	moved := make([]bool, len(orderings))
	errs := make([]error, len(orderings))
	var wg sync.WaitGroup
	for oi, key := range orderings {
		wg.Add(1)
		go func(oi int, key func(j *Job) int64) {
			defer wg.Done()
			order := append([]*Job(nil), jobs...)
			sort.Slice(order, func(a, b int) bool {
				ka, kb := key(order[a]), key(order[b])
				if ka != kb {
					return ka > kb
				}
				ta, tb := prefTimes[order[a]], prefTimes[order[b]]
				if ta != tb {
					return ta > tb
				}
				return order[a].ID < order[b].ID
			})
			results[oi], moved[oi], errs[oi] = packList(order, f.fork())
		}(oi, key)
	}
	wg.Wait()

	bi := -1
	for oi := range results {
		if errs[oi] != nil {
			return nil, false, errs[oi]
		}
		if bi < 0 || results[oi].Makespan < results[bi].Makespan {
			bi = oi
		}
	}
	return results[bi], moved[bi], nil
}

// adoptSeed rebuilds a warm-start seed over this Optimize call's job
// set: placements are matched by job ID, durations re-derived from the
// current staircases, and the result validated against the (possibly
// wider) bin. It returns nil if the seed does not describe exactly this
// job set or is not feasible here, in which case the caller packs cold.
func adoptSeed(jobs []*Job, width int, seed *Schedule) *Schedule {
	if seed == nil || len(seed.Placements) != len(jobs) || seed.Width > width {
		return nil
	}
	byID := make(map[string]*Job, len(jobs))
	for _, j := range jobs {
		byID[j.ID] = j
	}
	s := &Schedule{Width: width, Placements: make([]Placement, 0, len(jobs))}
	for i := range seed.Placements {
		sp := &seed.Placements[i]
		j := byID[sp.Job.ID]
		if j == nil || sp.Width < j.Options[0].Width || sp.Width > width {
			return nil
		}
		delete(byID, sp.Job.ID) // each job exactly once
		p := Placement{Job: j, Width: sp.Width, Start: sp.Start, WireLo: sp.WireLo}
		p.End = p.Start + timeFor(j, p.Width)
		s.Placements = append(s.Placements, p)
		if p.End > s.Makespan {
			s.Makespan = p.End
		}
	}
	if len(byID) != 0 || s.Validate() != nil {
		return nil
	}
	return s
}

// shrinkSeed adapts a warm-start seed from a WIDER bin, which cannot be
// adopted verbatim (its placements may overflow the narrower bin): the
// jobs are re-placed earliest-fit in the seed's placement order (start,
// wire, ID), a single guided packing that inherits the seed's structure
// for a third of the three-ordering cold cost. It returns nil if the
// seed is not from a wider bin or does not describe exactly this job
// set, in which case the caller packs cold.
func shrinkSeed(jobs []*Job, width int, seed *Schedule, f *fitter) *Schedule {
	if seed == nil || seed.Width <= width || len(seed.Placements) != len(jobs) {
		return nil
	}
	byID := make(map[string]*Job, len(jobs))
	for _, j := range jobs {
		byID[j.ID] = j
	}
	idx := make([]int, len(seed.Placements))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		pa, pb := &seed.Placements[idx[a]], &seed.Placements[idx[b]]
		if pa.Start != pb.Start {
			return pa.Start < pb.Start
		}
		if pa.WireLo != pb.WireLo {
			return pa.WireLo < pb.WireLo
		}
		return pa.Job.ID < pb.Job.ID
	})
	order := make([]*Job, 0, len(jobs))
	for _, i := range idx {
		j := byID[seed.Placements[i].Job.ID]
		if j == nil {
			return nil
		}
		delete(byID, j.ID) // each job exactly once
		order = append(order, j)
	}
	if len(byID) != 0 {
		return nil
	}
	s := &Schedule{Width: width, Placements: make([]Placement, 0, len(order))}
	f.reset(s.Placements)
	for _, j := range order {
		p, ok := f.bestPlacement(j, s.Placements)
		if !ok {
			return nil
		}
		f.place(s, p)
		if p.End > s.Makespan {
			s.Makespan = p.End
		}
	}
	return s
}

// packList packs the jobs in the given order and runs the improvement
// loop. moved reports whether the loop changed any placement; when it
// did not, the schedule is purely greedy: every job sits at its best
// placement given the jobs packed before it.
//
// With a prefix store (WithPrefixStore) the greedy pass first adopts
// the placements the store holds for the longest prefix of order, then
// places the remaining jobs and records each placement under the one
// before it. A placement depends only on the placements before it, so
// the resumed pass builds exactly the schedule a fresh one would.
func packList(order []*Job, f *fitter) (s *Schedule, moved bool, err error) {
	s = &Schedule{Width: f.binWidth}
	s.Placements = make([]Placement, 0, len(order))
	st, at := f.cfg.prefix, int32(0)
	if st != nil {
		s.Placements, at = st.resume(f.binWidth, f.cfg.paretoOnly, order, s.Placements)
		for i := range s.Placements {
			s.Makespan = max(s.Makespan, s.Placements[i].End)
		}
	}
	f.reset(s.Placements)
	for _, j := range order[len(s.Placements):] {
		if err := f.cfg.ctxErr(); err != nil {
			return nil, false, err
		}
		p, ok := f.bestPlacement(j, s.Placements)
		if !ok {
			return nil, false, fmt.Errorf("tam: could not place job %s", j.ID)
		}
		f.place(s, p)
		if p.End > s.Makespan {
			s.Makespan = p.End
		}
		if st != nil {
			at = st.add(at, &p)
		}
	}
	return s, improve(s, f), nil
}

// repack removes and re-places every job once, always picking the
// latest-finishing job not yet processed — the order is re-derived as
// ends move, rather than frozen by an up-front sort, so earlier moves
// inform later choices and every re-placement is checked against the
// live schedule (including its serialization groups). A re-placed job
// can always return to its old slot, so each step is monotone: neither
// the job's end nor the makespan ever increases.
func repack(s *Schedule, f *fitter) {
	done := make(map[*Job]bool, len(s.Placements))
	f.reset(s.Placements)
	for {
		// On cancellation the schedule is abandoned by Optimize, so
		// bailing between steps (possibly leaving Makespan un-tightened)
		// is safe.
		if f.cfg.ctxErr() != nil {
			return
		}
		worst := -1
		for i := range s.Placements {
			p := &s.Placements[i]
			if done[p.Job] {
				continue
			}
			if worst < 0 || p.End > s.Placements[worst].End ||
				(p.End == s.Placements[worst].End && p.Job.ID < s.Placements[worst].Job.ID) {
				worst = i
			}
		}
		if worst < 0 {
			break
		}
		removed := f.take(s, worst)
		done[removed.Job] = true
		p, ok := f.bestPlacement(removed.Job, s.Placements)
		if !ok || p.End > removed.End {
			p = removed
		}
		f.place(s, p)
	}
	s.Makespan = 0
	for i := range s.Placements {
		if s.Placements[i].End > s.Makespan {
			s.Makespan = s.Placements[i].End
		}
	}
}

// preferredWidth picks the narrowest option whose time meets the target
// makespan estimate, or the widest usable option if none does.
func preferredWidth(j *Job, binWidth int, target int64) int {
	u := j.usable(binWidth)
	for _, p := range u {
		if p.Time <= target {
			return p.Width
		}
	}
	return u[len(u)-1].Width
}

// candidateWidths lists the width options the packer will try.
func candidateWidths(j *Job, binWidth int, cfg config) []wrapper.Point {
	u := j.usable(binWidth)
	if cfg.paretoOnly {
		return u
	}
	// Full staircase: every width from the narrowest option to binWidth.
	var out []wrapper.Point
	for w := u[0].Width; w <= binWidth; w++ {
		out = append(out, wrapper.Point{Width: w, Time: timeFor(j, w)})
	}
	return out
}

// improve repeatedly re-places the jobs that define the makespan,
// allowing them to widen into idle wires or move, keeping any strict
// improvement. When one makespan-defining job cannot be improved the
// loop moves on to the next one instead of giving up — moving the others
// frees wires and windows that can unstick it on a later pass — and only
// stops once a whole pass leaves every makespan-defining job in place.
// It reports whether it moved any job; Optimize skips its repack and
// improve polish on a cold winner this left untouched.
func improve(s *Schedule, f *fitter) (movedAny bool) {
	tried := make(map[*Job]bool)
	f.reset(s.Placements)
	for pass := 0; pass < f.cfg.improvePasses; pass++ {
		clear(tried)
		moved := false
		for {
			// Cancelled runs are abandoned by Optimize; see repack.
			if f.cfg.ctxErr() != nil {
				return movedAny
			}
			// The next makespan-defining placement not yet tried this
			// pass (stable choice by ID).
			worst := -1
			for i := range s.Placements {
				if s.Placements[i].End != s.Makespan || tried[s.Placements[i].Job] {
					continue
				}
				if worst < 0 || s.Placements[i].Job.ID < s.Placements[worst].Job.ID {
					worst = i
				}
			}
			if worst < 0 {
				break
			}
			removed := f.take(s, worst)
			tried[removed.Job] = true

			p, ok := f.bestPlacement(removed.Job, s.Placements)
			if !ok || p.End >= s.Makespan {
				// No strict improvement for this job: restore it and try
				// the next makespan-defining job.
				p = removed
			} else {
				moved = true
			}
			f.place(s, p)
		}
		if !moved {
			return movedAny
		}
		movedAny = true
		s.Makespan = 0
		for i := range s.Placements {
			if s.Placements[i].End > s.Makespan {
				s.Makespan = s.Placements[i].End
			}
		}
	}
	return movedAny
}

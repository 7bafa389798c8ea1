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
//
// The three complementary packing orderings are independent, so they run
// concurrently; the winner is chosen deterministically (smallest
// makespan, first ordering on ties), making the result identical to a
// sequential evaluation. Under WithPrefixStore each ordering's greedy
// pass resumes after the longest prefix of its job order the store
// already holds, which changes no placement.
func Optimize(jobs []*Job, width int, opts ...Option) (*Schedule, error) {
	return packWith(jobs, width, opts, func(f *fitter) (*Schedule, error) {
		best, moved, err := packCold(jobs, width, f)
		if err != nil {
			return nil, err
		}
		// Polish only the winning schedule: repack re-places every job,
		// so running it per ordering buys little for its cost. A winner
		// improve left untouched is purely greedy, and then the polish is
		// the identity: each job was placed at its best placement given
		// only the jobs packed before it, every other job only shrinks
		// its feasible region, and its current placement stays in that
		// region — so bestPlacement returns it again, ties included.
		// TestRepackIdentityOnGreedyWinners pins this. (With
		// improvePasses 0, improve never moves a job, so the polish is
		// off as asked.)
		if moved {
			repack(best, f)
			improve(best, f)
		}
		return best, nil
	})
}

// packWith is the head and tail every backend shares. It applies opts
// over the defaults, checks the bin width and the jobs, builds the
// fitter the backend's loops share, and hands it to pack; the schedule
// pack returns must then survive a last cancellation probe and
// Schedule.Validate. An empty job set packs to an empty schedule
// without calling pack.
func packWith(jobs []*Job, width int, opts []Option, pack func(f *fitter) (*Schedule, error)) (*Schedule, error) {
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
	f := newFitter(newOptionTable(jobs, width, cfg), width, cfg)
	if err := cfg.ctxErr(); err != nil {
		return nil, err
	}
	s, err := pack(f)
	if err != nil {
		return nil, err
	}
	if err := cfg.ctxErr(); err != nil {
		return nil, err
	}
	if err := s.Validate(); err != nil {
		return nil, fmt.Errorf("tam: internal error: produced invalid schedule: %w", err)
	}
	return s, nil
}

// sortKeys are the per-job keys the packing orders sort by, computed
// once per packing so the comparators do no staircase walks (and no
// allocations) inside sort.
type sortKeys struct {
	// target is the LowerBound makespan estimate. A job's preferred
	// width is its narrowest option whose time meets it
	// (preferredWidth).
	target int64
	// prefTime is each job's time at its preferred width.
	prefTime map[*Job]int64
	// groupTotal is each serialization group's serial time at its jobs'
	// widest usable options.
	groupTotal map[string]int64
}

func newSortKeys(jobs []*Job, width int) sortKeys {
	k := sortKeys{target: LowerBound(jobs, width), prefTime: make(map[*Job]int64, len(jobs)), groupTotal: map[string]int64{}}
	for _, j := range jobs {
		if j.Group != "" {
			k.groupTotal[j.Group] += j.minTime(width)
		}
	}
	for _, j := range jobs {
		k.prefTime[j] = timeFor(j, preferredWidth(j, width, k.target))
	}
	return k
}

// chain is j's chain weight. Serialization groups behave like one long
// chain, so a grouped job weighs its whole group's serial time rather
// than its own (often short) time; otherwise the chain ends up in a
// tail behind a tightly packed bin. An ungrouped job weighs its
// preferred time.
func (k sortKeys) chain(j *Job) int64 {
	if j.Group != "" {
		return k.groupTotal[j.Group]
	}
	return k.prefTime[j]
}

// packCold is Optimize up to the choice of winner: it packs the three
// orderings concurrently, each on its own fork of f, and returns the
// winning schedule unpolished, with whether improve moved a job in it.
func packCold(jobs []*Job, width int, f *fitter) (*Schedule, bool, error) {
	keys := newSortKeys(jobs, width)
	volumes := make(map[*Job]int64, len(jobs))
	for _, j := range jobs {
		volumes[j] = j.volume(width)
	}

	// Greedy list scheduling is sensitive to the job order; pack with a
	// few complementary orderings and keep the best schedule. All
	// orderings share deterministic tie-breaking by ID.
	orderings := []func(j *Job) int64{
		keys.chain,
		func(j *Job) int64 { return keys.prefTime[j] },
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
				ta, tb := keys.prefTime[order[a]], keys.prefTime[order[b]]
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

package tam

import "sort"

// PackRectangle packs the jobs into a TAM of the given width using the
// rectangle bin-packing formulation: each (module, width option) is a
// width×time rectangle, and jobs are placed one at a time in the
// diagonal-length order of arXiv 1008.4446 — longest diagonal first,
// where a job's diagonal is measured on its preferred rectangle with
// both axes normalized to the instance (width by the bin width, time by
// the longest preferred duration), so neither axis dominates by unit
// choice alone. Serialization groups weight the time axis by the whole
// group's serial duration, for the same reason Optimize does: a chain
// of short tests behaves like one long rectangle.
//
// Each job is placed by the same earliest-fit bestPlacement machinery
// as the occupancy backend — minimizing (end, width, start, wire) over
// the job's staircase options — and the shared improve polish then
// re-places the makespan-defining jobs. Unlike Optimize there is no
// three-ordering race and no repack pass: the backend is a genuinely
// different (and cheaper) search trajectory, which is what makes the
// cross-backend differential tests a meaningful oracle.
//
// PackRectangle honours the full Option set: WithContext cancels
// between placements, and the result always passes Schedule.Validate.
func PackRectangle(jobs []*Job, width int, opts ...Option) (*Schedule, error) {
	return packWith(jobs, width, opts, func(f *fitter) (*Schedule, error) {
		keys := newSortKeys(jobs, width)
		var maxChain int64 = 1 // avoid division by zero on all-zero times
		for _, j := range jobs {
			maxChain = max(maxChain, keys.chain(j))
		}

		// Squared normalized diagonal length of each job's preferred
		// rectangle, its time axis weighted by the chain weight. The
		// squares and the sum are kept in separate statements so no
		// fused multiply-add can perturb the comparison order across
		// architectures.
		diag := make(map[*Job]float64, len(jobs))
		for _, j := range jobs {
			x := float64(preferredWidth(j, width, keys.target)) / float64(width)
			y := float64(keys.chain(j)) / float64(maxChain)
			xx := x * x
			yy := y * y
			diag[j] = xx + yy
		}

		order := append([]*Job(nil), jobs...)
		sort.Slice(order, func(a, b int) bool {
			da, db := diag[order[a]], diag[order[b]]
			if da != db {
				return da > db
			}
			ta, tb := keys.prefTime[order[a]], keys.prefTime[order[b]]
			if ta != tb {
				return ta > tb
			}
			return order[a].ID < order[b].ID
		})

		s, _, err := packList(order, f)
		return s, err
	})
}

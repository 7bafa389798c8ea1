package tam

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"mixsoc/internal/wrapper"
)

// randomJobs derives a reproducible random job set from (seed, nJobs,
// binWidth): staircases are strictly improving, a third of the jobs
// carry one of two serialization groups, and every job has at least one
// option that fits the bin.
func randomJobs(seed int64, nJobs, binWidth int) []*Job {
	rng := rand.New(rand.NewSource(seed))
	jobs := make([]*Job, 0, nJobs)
	for i := 0; i < nJobs; i++ {
		w := 1 + rng.Intn(binWidth)
		tt := int64(20 + rng.Intn(300))
		pts := []wrapper.Point{{Width: w, Time: tt}}
		for len(pts) < 1+rng.Intn(4) {
			w += 1 + rng.Intn(8)
			tt -= 1 + rng.Int63n(tt/2+1)
			if tt <= 0 {
				break
			}
			pts = append(pts, wrapper.Point{Width: w, Time: tt})
		}
		j := &Job{ID: fmt.Sprintf("j%02d", i), Options: pts}
		if rng.Intn(3) == 0 {
			j.Group = fmt.Sprintf("g%d", rng.Intn(2))
		}
		jobs = append(jobs, j)
	}
	return jobs
}

// earliestFitScan is the oracle for earliestFit, built from the raw
// placements alone so it shares no state with the sweep: the candidate
// start times (0, every end, every start minus dur) are collected and
// sorted, and each candidate window [t, t+dur) is checked from scratch
// by scanning every placement for a same-group overlap and counting the
// wires the overlapping ones occupy, then searching the counts wire by
// wire for the lowest band of w free wires.
func (f *fitter) earliestFitScan(j *Job, w int, dur int64, placements []Placement, limit int64) (int64, int, bool) {
	cands := []int64{0}
	for i := range placements {
		cands = append(cands, placements[i].End, placements[i].Start-dur)
	}
	slices.Sort(cands)
	occ := make([]int32, f.binWidth)
	for _, t := range slices.Compact(cands) {
		if t < 0 {
			continue
		}
		if t > limit {
			break
		}
		clear(occ)
		groupHit := false
		for i := range placements {
			p := &placements[i]
			if p.Start >= t+dur || p.End <= t {
				continue
			}
			if j.Group != "" && p.Job.Group == j.Group {
				groupHit = true
			}
			for wire := p.WireLo; wire < p.WireLo+p.Width; wire++ {
				occ[wire]++
			}
		}
		if groupHit {
			continue
		}
		run := 0
		for wire := 0; wire < f.binWidth; wire++ {
			if occ[wire] != 0 {
				run = 0
				continue
			}
			run++
			if run >= w {
				return t, wire - w + 1, true
			}
		}
	}
	return 0, 0, false
}

// bestPlacementScan is the oracle for bestPlacement: every width option
// gets an unpruned earliestFitScan, and the minimum under the same
// (end, width, start, wire) order wins. Agreeing with it also shows
// bestPlacement's incumbent prunes change no answer.
func (f *fitter) bestPlacementScan(j *Job, placements []Placement) (Placement, bool) {
	var best Placement
	found := false
	for _, opt := range f.opts[j] {
		t, wireLo, ok := f.earliestFitScan(j, opt.Width, opt.Time, placements, math.MaxInt64)
		if !ok {
			continue
		}
		p := Placement{Job: j, Width: opt.Width, Start: t, End: t + opt.Time, WireLo: wireLo}
		if !found || cmp.Or(
			cmp.Compare(p.End, best.End),
			cmp.Compare(p.Width, best.Width),
			cmp.Compare(p.Start, best.Start),
			cmp.Compare(p.WireLo, best.WireLo),
		) < 0 {
			best, found = p, true
		}
	}
	return best, found
}

// checkEdges fails unless the fitter's incrementally maintained edge
// lists are sorted by time and hold exactly the edges a fresh reset
// over placements builds. Edges of equal time may sit in any order, so
// both sides are compared in (time, index) order.
func checkEdges(t *testing.T, fit *fitter, placements []Placement) {
	t.Helper()
	fresh := fit.fork()
	fresh.reset(placements)
	canon := func(es []edge) []edge {
		out := slices.Clone(es)
		slices.SortFunc(out, func(a, b edge) int { return cmp.Or(cmp.Compare(a.t, b.t), cmp.Compare(a.i, b.i)) })
		return out
	}
	for _, l := range []struct {
		name      string
		got, want []edge
	}{{"starts", fit.starts, fresh.starts}, {"ends", fit.ends, fresh.ends}} {
		if !slices.IsSortedFunc(l.got, byTime) {
			t.Fatalf("%s not sorted by time: %v", l.name, l.got)
		}
		if g, w := canon(l.got), canon(l.want); !slices.Equal(g, w) {
			t.Fatalf("%s diverge from a fresh reset:\n got  %v\n want %v", l.name, g, w)
		}
	}
}

// FuzzBitmaskFitter packs random job sets in bins of 1 to 256 wires and
// then drives a random sequence of take and place steps over the
// schedule, the way packList, repack and improve mutate it: a taken job
// is either restored verbatim or set aside and later re-placed at its
// bestPlacement. After every step the fitter's edge lists must equal a
// fresh reset, and before every placement the bitset sweep must agree
// with the from-scratch oracle: earliestFit bit-identical for every
// width option, with and without a pruning limit, and bestPlacement
// choosing the oracle's placement. Any divergence is a bug in the sweep
// or in the incremental edge lists.
func FuzzBitmaskFitter(f *testing.F) {
	f.Add(int64(1), uint8(8), uint8(12))
	f.Add(int64(7), uint8(1), uint8(5))
	f.Add(int64(42), uint8(63), uint8(16))
	f.Add(int64(99), uint8(31), uint8(9))
	f.Add(int64(1234), uint8(47), uint8(14))
	// Multi-word widths: just past one word, two full words, and wider.
	f.Add(int64(5), uint8(64), uint8(12))
	f.Add(int64(17), uint8(65), uint8(10))
	f.Add(int64(23), uint8(127), uint8(15))
	f.Add(int64(31), uint8(128), uint8(8))
	f.Add(int64(77), uint8(200), uint8(13))
	f.Fuzz(func(t *testing.T, seed int64, widthByte, nByte uint8) {
		binWidth := 1 + int(widthByte)
		n := 2 + int(nByte)%14
		jobs := randomJobs(seed, n, binWidth)
		rng := rand.New(rand.NewSource(seed))

		cfg := config{improvePasses: len(jobs), paretoOnly: true}
		opts := newOptionTable(jobs, binWidth, cfg)
		fit := newFitter(opts, binWidth, cfg)
		oracle := newFitter(opts, binWidth, cfg)

		s := &Schedule{Width: binWidth}
		fit.reset(s.Placements)
		placeBest := func(j *Job) {
			for _, opt := range opts[j] {
				for _, limit := range []int64{math.MaxInt64, 100} {
					ft, fw, fok := fit.earliestFit(j, opt.Width, opt.Time, s.Placements, limit)
					ot, ow, ook := oracle.earliestFitScan(j, opt.Width, opt.Time, s.Placements, limit)
					if ft != ot || fw != ow || fok != ook {
						t.Fatalf("earliestFit(%s, w=%d, dur=%d, limit=%d) diverges: sweep (%d,%d,%v) oracle (%d,%d,%v)",
							j.ID, opt.Width, opt.Time, limit, ft, fw, fok, ot, ow, ook)
					}
				}
			}
			fp, fok := fit.bestPlacement(j, s.Placements)
			op, ook := oracle.bestPlacementScan(j, s.Placements)
			if fok != ook || fp != op {
				t.Fatalf("bestPlacement(%s) diverges: sweep %+v/%v oracle %+v/%v", j.ID, fp, fok, op, ook)
			}
			if !fok {
				t.Fatalf("could not place %s in width-%d bin", j.ID, binWidth)
			}
			fit.place(s, fp)
			checkEdges(t, fit, s.Placements)
		}

		for _, j := range jobs {
			placeBest(j)
		}
		var aside []*Job
		for step := 0; step < 4*n; step++ {
			if len(aside) > 0 && (len(s.Placements) == 0 || rng.Intn(2) == 0) {
				k := rng.Intn(len(aside))
				j := aside[k]
				aside = slices.Delete(aside, k, k+1)
				placeBest(j)
				continue
			}
			removed := fit.take(s, rng.Intn(len(s.Placements)))
			checkEdges(t, fit, s.Placements)
			if rng.Intn(2) == 0 {
				fit.place(s, removed)
				checkEdges(t, fit, s.Placements)
			} else {
				aside = append(aside, removed.Job)
			}
		}
		for _, j := range aside {
			placeBest(j)
		}
		for i := range s.Placements {
			s.Makespan = max(s.Makespan, s.Placements[i].End)
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("schedule invalid after the place/take walk: %v", err)
		}
	})
}

// TestLowestFreeRun pins the bitset band search against a wire-by-wire
// reference across single-word bins, word-boundary-straddling runs,
// partial last words, and random bitsets.
func TestLowestFreeRun(t *testing.T) {
	ref := func(busy []uint64, binWidth, w int) int {
		run := 0
		for wire := 0; wire < binWidth; wire++ {
			if busy[wire>>6]&(1<<uint(wire&63)) != 0 {
				run = 0
				continue
			}
			run++
			if run >= w {
				return wire - w + 1
			}
		}
		return -1
	}
	set := func(busy []uint64, wires ...int) {
		for _, wire := range wires {
			busy[wire>>6] |= 1 << uint(wire&63)
		}
	}

	// Hand-picked shapes: empty bitset, a run straddling the 64-bit
	// boundary, a fully busy middle word, and a partial last word.
	for _, binWidth := range []int{1, 16, 63, 64, 65, 100, 128, 129, 200} {
		words := (binWidth + 63) / 64
		empty := make([]uint64, words)
		for _, w := range []int{1, 63, 64, 65, binWidth, binWidth + 1} {
			if got, want := lowestFreeRun(empty, binWidth, w), ref(empty, binWidth, w); got != want {
				t.Fatalf("empty bitset binWidth=%d w=%d: got %d, want %d", binWidth, w, got, want)
			}
		}
		straddle := make([]uint64, words)
		for wire := 0; wire < 60; wire++ {
			set(straddle, wire)
		}
		for wire := 70; wire < binWidth; wire++ {
			set(straddle, wire)
		}
		for _, w := range []int{1, 5, 10, 11} {
			if got, want := lowestFreeRun(straddle, binWidth, w), ref(straddle, binWidth, w); got != want {
				t.Fatalf("straddle binWidth=%d w=%d: got %d, want %d", binWidth, w, got, want)
			}
		}
	}

	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 5000; i++ {
		binWidth := 1 + rng.Intn(264)
		words := (binWidth + 63) / 64
		busy := make([]uint64, words)
		for wi := range busy {
			switch rng.Intn(4) {
			case 0: // mostly busy
				busy[wi] = rng.Uint64() | rng.Uint64()
			case 1: // mostly free
				busy[wi] = rng.Uint64() & rng.Uint64() & rng.Uint64()
			case 2:
				busy[wi] = rng.Uint64()
			case 3: // all free
			}
		}
		w := 1 + rng.Intn(binWidth+2)
		if got, want := lowestFreeRun(busy, binWidth, w), ref(busy, binWidth, w); got != want {
			t.Fatalf("random bitset %d (binWidth=%d, w=%d): got %d, want %d", i, binWidth, w, got, want)
		}
	}
}

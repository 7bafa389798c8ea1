package tam

import "testing"

// packedFitter packs p93791 at W=64 and returns its jobs, the packed
// schedule, and a fitter sized for the jobs and mirroring the schedule.
func packedFitter(tb testing.TB) ([]*Job, *Schedule, *fitter) {
	tb.Helper()
	jobs := digitalJobs(tb, 64)
	s, err := Optimize(jobs, 64)
	if err != nil {
		tb.Fatal(err)
	}
	cfg := config{improvePasses: len(jobs), paretoOnly: true}
	f := newFitter(newOptionTable(jobs, 64, cfg), 64, cfg)
	f.reset(s.Placements)
	return jobs, s, f
}

// placementOf returns the index of j's placement in s.
func placementOf(s *Schedule, j *Job) int {
	for i := range s.Placements {
		if s.Placements[i].Job == j {
			return i
		}
	}
	return -1
}

// BenchmarkEarliestFit measures one bestPlacement query — the packer's
// innermost operation — for the last job of a realistic packed
// schedule, against that schedule with the job's own placement taken
// out (the query repack and improve make).
func BenchmarkEarliestFit(b *testing.B) {
	jobs, s, f := packedFitter(b)
	probe := jobs[len(jobs)-1]
	f.take(s, placementOf(s, probe))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := f.bestPlacement(probe, s.Placements); !ok {
			b.Fatal("no placement found")
		}
	}
}

// TestFitterSteadyStateAllocs gates the fitter's steady state: once
// sized for its jobs, taking any job out of a packed schedule, querying
// its bestPlacement and placing it back allocate nothing.
func TestFitterSteadyStateAllocs(t *testing.T) {
	jobs, s, f := packedFitter(t)
	allocs := testing.AllocsPerRun(20, func() {
		for _, j := range jobs {
			p := f.take(s, placementOf(s, j))
			if _, ok := f.bestPlacement(j, s.Placements); !ok {
				t.Fatalf("no placement for %s", j.ID)
			}
			f.place(s, p)
		}
	})
	if allocs != 0 {
		t.Errorf("take/bestPlacement/place allocate %.1f times per pass over %d jobs, want 0", allocs, len(jobs))
	}
	if err := s.Validate(); err != nil {
		t.Fatalf("schedule invalid after the passes: %v", err)
	}
}

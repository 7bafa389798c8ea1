package tam

import (
	"math/rand"
	"slices"
	"testing"
)

// TestMakespanInvariantToJobOrder is a metamorphic check on both
// backends: every backend orders the jobs by its own keys before placing
// them, so permuting the job slice a caller hands in must not change the
// makespan. It packs p93791's digital jobs at the paper's widths under
// 20 seeded shuffles per (width, backend).
func TestMakespanInvariantToJobOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(20050307))
	for _, w := range []int{16, 32, 48, 64} {
		jobs := digitalJobs(t, w)
		for _, b := range []Packer{OccupancyPacker{}, RectanglePacker{}} {
			ref, err := b.Pack(jobs, w)
			if err != nil {
				t.Fatalf("%s W=%d: %v", b.Name(), w, err)
			}
			for i := 0; i < 20; i++ {
				shuffled := slices.Clone(jobs)
				rng.Shuffle(len(shuffled), func(a, c int) { shuffled[a], shuffled[c] = shuffled[c], shuffled[a] })
				s, err := b.Pack(shuffled, w)
				if err != nil {
					t.Fatalf("%s W=%d shuffle %d: %v", b.Name(), w, i, err)
				}
				if s.Makespan != ref.Makespan {
					t.Errorf("%s W=%d shuffle %d: makespan %d, input order gives %d", b.Name(), w, i, s.Makespan, ref.Makespan)
				}
			}
		}
	}
}

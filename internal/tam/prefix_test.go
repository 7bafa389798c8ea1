package tam

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"sync/atomic"
	"testing"
	"unsafe"

	"mixsoc/internal/wrapper"
)

// storeFitter returns a fitter for jobs at width w whose packings go
// through st (nil: no store).
func storeFitter(jobs []*Job, w int, st *PrefixStore) *fitter {
	cfg := config{improvePasses: len(jobs), paretoOnly: true, prefix: st}
	return newFitter(newOptionTable(jobs, w, cfg), w, cfg)
}

// Two jobs with one ID but a different group or staircase are different
// jobs to the packer, so the store must never let one resume the
// other's placement. Each pair below is chosen so that the two
// placements differ: a wrong share would show as a wrong schedule.
func TestPrefixStoreNeverSharesSameIDDifferentContent(t *testing.T) {
	a := groupJob("a", "g", 2, 50)
	for _, tc := range []struct {
		name   string
		x, alt *Job
	}{
		// x may overlap a; alt shares a's group and must follow it.
		{"group", fixedJob("x", 2, 30), groupJob("x", "g", 2, 30)},
		// Both fit beside a, but alt is wider and ends later.
		{"options", fixedJob("x", 2, 30), fixedJob("x", 2, 40)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st := NewPrefixStore()
			for _, order := range [][]*Job{{a, tc.x}, {a, tc.alt}, {a, tc.x}} {
				want, _, err := packList(order, storeFitter(order, 4, nil))
				if err != nil {
					t.Fatal(err)
				}
				got, _, err := packList(order, storeFitter(order, 4, st))
				if err != nil {
					t.Fatal(err)
				}
				if got.Makespan != want.Makespan || !slices.Equal(got.Placements, want.Placements) {
					t.Fatalf("order %s,%s%q: got %+v, want %+v", order[0].ID, order[1].ID, order[1].Group, got.Placements, want.Placements)
				}
			}
			// a once, then x and alt as two children of a.
			if n := st.Len(); n != 3 {
				t.Fatalf("store holds %d placements, want 3 (a, x, and x with other content)", n)
			}
			if pl, _ := st.resume(4, true, []*Job{a, tc.alt}, nil); len(pl) != 2 || pl[1].Job != tc.alt {
				t.Fatalf("resume did not find alt's own placement: %+v", pl)
			}
		})
	}
}

// A packing cancelled midway leaves only complete nodes: a later pack of
// the same jobs through the store equals a pack without it.
func TestPrefixStoreAfterCancellation(t *testing.T) {
	jobs := digitalJobs(t, 32)
	st := NewPrefixStore()
	ctx, cancel := context.WithCancel(context.Background())
	_, err := Optimize(jobs, 32, WithPrefixStore(st), WithContext(cancelAfter{ctx, new(atomic.Int32), 40, cancel}))
	if err == nil {
		t.Fatal("the cancelled pack succeeded")
	}
	if st.Len() == 0 {
		t.Fatal("the cancelled pack recorded nothing: the check is vacuous")
	}
	want, err := Optimize(jobs, 32)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Optimize(jobs, 32, WithPrefixStore(st))
	if err != nil {
		t.Fatal(err)
	}
	if got.Makespan != want.Makespan || !slices.Equal(got.Placements, want.Placements) {
		t.Fatal("a pack after a cancelled one differs from a pack without the store")
	}
}

// cancelAfter is a context that cancels itself on its n-th Err call, so
// a packing stops between two placements.
type cancelAfter struct {
	context.Context
	calls  *atomic.Int32
	n      int32
	cancel context.CancelFunc
}

func (c cancelAfter) Err() error {
	if c.calls.Add(1) == c.n {
		c.cancel()
	}
	return c.Context.Err()
}

// The store sits on every greedy pass, so its steady state is gated:
// resuming a stored prefix into a presized schedule allocates nothing,
// and recording placements allocates one block per 128 nodes of 40
// bytes.
func TestPrefixStoreAllocs(t *testing.T) {
	if size := unsafe.Sizeof(prefixNode{}); size != 40 {
		t.Errorf("prefixNode is %d bytes, want 40", size)
	}
	jobs := digitalJobs(t, 32)
	st := NewPrefixStore()
	if _, _, err := packList(jobs, storeFitter(jobs, 32, st)); err != nil {
		t.Fatal(err)
	}
	dst := make([]Placement, 0, len(jobs))
	allocs := testing.AllocsPerRun(20, func() {
		if pl, _ := st.resume(32, true, jobs, dst[:0]); len(pl) != len(jobs) {
			t.Fatalf("resumed %d of %d placements", len(pl), len(jobs))
		}
	})
	if allocs != 0 {
		t.Errorf("resume allocates %.1f times, want 0", allocs)
	}

	st = NewPrefixStore()
	st.mu.Lock()
	at := st.root(32, true)
	st.mu.Unlock()
	p := Placement{Job: jobs[0], Width: 1, End: 1}
	allocs = testing.AllocsPerRun(10, func() {
		for range prefixBlockLen {
			at = st.add(at, &p)
		}
	})
	if allocs > 1 {
		t.Errorf("add allocates %.1f times per %d nodes, want at most 1 block", allocs, prefixBlockLen)
	}
}

// FuzzPrefixStore packs a sequence of job sets that share a prefix of
// jobs and differ after it — in their other jobs, and in the groups and
// staircases of some jobs that keep their ID — through one store, and
// checks every result against a pack without the store: packList in the
// given job order (so the shared prefix is the packing prefix), and
// both backends with Pareto and full staircases.
func FuzzPrefixStore(f *testing.F) {
	f.Add(int64(1), uint8(6), uint8(4), uint8(16), uint8(3))
	f.Add(int64(7), uint8(1), uint8(0), uint8(5), uint8(2))
	f.Add(int64(42), uint8(12), uint8(8), uint8(63), uint8(5))
	f.Add(int64(99), uint8(0), uint8(6), uint8(9), uint8(4))
	f.Fuzz(func(t *testing.T, seed int64, nShared, nSuffix, width, nSets uint8) {
		w := 1 + int(width)%64
		shared := randomJobs(seed, int(nShared)%16, w)
		rng := rand.New(rand.NewSource(seed))
		st := NewPrefixStore()
		for set := range 1 + int(nSets)%6 {
			jobs := make([]*Job, 0, len(shared)+int(nSuffix)%12)
			for _, j := range shared {
				jobs = append(jobs, variant(rng, j))
			}
			for i, j := range randomJobs(seed+int64(set)+1, int(nSuffix)%12, w) {
				j.ID = fmt.Sprintf("s%d.%02d", set, i)
				jobs = append(jobs, j)
			}
			if len(jobs) == 0 {
				continue
			}
			want, _, err := packList(jobs, storeFitter(jobs, w, nil))
			if err != nil {
				t.Fatal(err)
			}
			got, _, err := packList(jobs, storeFitter(jobs, w, st))
			if err != nil {
				t.Fatal(err)
			}
			if got.Makespan != want.Makespan || !slices.Equal(got.Placements, want.Placements) {
				t.Fatalf("set %d: packList through the store differs from packList without it", set)
			}
			for _, pk := range []Packer{OccupancyPacker{}, RectanglePacker{}} {
				for _, opts := range [][]Option{nil, {WithFullStaircase()}} {
					want, err := pk.Pack(jobs, w, opts...)
					if err != nil {
						t.Fatal(err)
					}
					got, err := pk.Pack(jobs, w, append(opts, WithPrefixStore(st))...)
					if err != nil {
						t.Fatal(err)
					}
					if got.Makespan != want.Makespan || !slices.Equal(got.Placements, want.Placements) {
						t.Fatalf("set %d: %s (%d options) through the store differs from a pack without it",
							set, pk.Name(), len(opts))
					}
				}
			}
		}
	})
}

// variant returns j itself, an equal copy, or a job with j's ID but
// another group or a slower first staircase step, at random.
func variant(rng *rand.Rand, j *Job) *Job {
	switch rng.Intn(5) {
	case 0:
		return j
	case 1:
		c := *j
		c.Options = slices.Clone(j.Options)
		return &c
	case 2:
		c := *j
		c.Group = fmt.Sprintf("g%d", rng.Intn(3))
		return &c
	case 3:
		// Slowing the narrowest option keeps the staircase strictly
		// improving.
		c := *j
		c.Options = slices.Clone(j.Options)
		c.Options[0] = wrapper.Point{Width: c.Options[0].Width, Time: c.Options[0].Time + 1 + rng.Int63n(20)}
		return &c
	}
	return j
}

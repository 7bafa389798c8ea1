package proptest

// Differential suite for the packer's placement-prefix store: packing
// through a store shared by every configuration of a design must give
// the schedule a pack without the store gives, placement for placement
// and in the same slice order. The store resumes each greedy pass from
// the longest job prefix it already holds; any mismatch means a resumed
// prefix was not what the pass would have placed.

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"mixsoc/internal/core"
	"mixsoc/internal/partition"
	"mixsoc/internal/registry"
	"mixsoc/internal/socgen"
	"mixsoc/internal/tam"
)

// raceEnabled reports a -race build (see race_test.go).
var raceEnabled bool

// prefixWidths are the bin widths the prefix-store suite packs at.
var prefixWidths = []int{16, 24, 32, 40, 48, 56, 64}

// prefixMode is one packing setup the store must be transparent to.
type prefixMode struct {
	name   string
	packer tam.Packer
	opts   []tam.Option
}

var prefixModes = []prefixMode{
	{"occupancy", tam.OccupancyPacker{}, nil},
	{"rectangle", tam.RectanglePacker{}, nil},
	{"occupancy/full", tam.OccupancyPacker{}, []tam.Option{tam.WithFullStaircase()}},
	{"rectangle/full", tam.RectanglePacker{}, []tam.Option{tam.WithFullStaircase()}},
}

type prefixDesign struct {
	name  string
	d     *core.Design
	parts []partition.Partition
}

// prefixDesigns returns the 200 property-suite designs and every
// registry design, each with every candidate sharing configuration
// (just the all-share one for a design without analog cores).
func prefixDesigns(t *testing.T) []prefixDesign {
	t.Helper()
	var out []prefixDesign
	add := func(name string, d *core.Design) {
		parts := []partition.Partition{d.AllShare()}
		if len(d.Analog) > 0 {
			parts = d.Candidates(partition.AllowAllPolicy)
		}
		out = append(out, prefixDesign{name, d, parts})
	}
	for seed := int64(1); seed <= numSeeds; seed++ {
		d, err := socgen.Generate(socgen.Options{Seed: seed, Class: socgen.Small})
		if err != nil {
			t.Fatal(err)
		}
		add(fmt.Sprintf("seed%03d", seed), d)
	}
	for _, name := range registry.Names() {
		d, err := registry.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		add(name, d)
	}
	return out
}

// configJobs builds the jobs of every configuration at width w the way
// an evaluator does: one set of digital jobs shared by pointer, and
// analog jobs rebuilt per configuration, so the store matches both by
// pointer and by content.
func configJobs(t *testing.T, d *core.Design, parts []partition.Partition, w int) [][]*tam.Job {
	t.Helper()
	digital, err := core.DigitalJobs(d, w)
	if err != nil {
		t.Fatal(err)
	}
	out := make([][]*tam.Job, len(parts))
	for i, p := range parts {
		jobs, err := core.BuildJobs(d, p, w)
		if err != nil {
			t.Fatal(err)
		}
		copy(jobs, digital)
		out[i] = jobs
	}
	return out
}

// samePack fails unless got and want have the same makespan and the
// same placements in the same order.
func samePack(t *testing.T, label string, got, want *tam.Schedule) {
	t.Helper()
	if got.Makespan != want.Makespan || !slices.Equal(got.Placements, want.Placements) {
		t.Fatalf("%s: packing through the prefix store differs from packing without it (makespan %d, want %d)",
			label, got.Makespan, want.Makespan)
	}
}

// TestPrefixStoreDifferential packs every configuration of every design
// at each width, backend and staircase mode twice, once through one
// store the design shares across all of them and once without a store,
// and requires identical schedules. It is a pure-logic check of ~10^5
// packs, too slow under the race detector: -race runs cover the store
// through TestPrefixStoreConcurrent, and CI runs this test without it.
func TestPrefixStoreDifferential(t *testing.T) {
	if raceEnabled {
		t.Skip("runs without -race; TestPrefixStoreConcurrent covers the store under -race")
	}
	for _, ds := range prefixDesigns(t) {
		t.Run(ds.name, func(t *testing.T) {
			t.Parallel()
			st := tam.NewPrefixStore()
			placed := 0 // greedy placements the packs through the store made
			for _, w := range prefixWidths {
				configs := configJobs(t, ds.d, ds.parts, w)
				for _, m := range prefixModes {
					for i, jobs := range configs {
						label := fmt.Sprintf("W=%d %s %v", w, m.name, ds.parts[i])
						want, err := m.packer.Pack(jobs, w, m.opts...)
						if err != nil {
							t.Fatalf("%s: %v", label, err)
						}
						got, err := m.packer.Pack(jobs, w, append(m.opts, tam.WithPrefixStore(st))...)
						if err != nil {
							t.Fatalf("%s: through the store: %v", label, err)
						}
						samePack(t, label, got, want)
						placed += len(jobs)
						if m.packer.Name() == tam.BackendOccupancy {
							placed += 2 * len(jobs) // three orderings
						}
					}
				}
			}
			if n := st.Len(); n == 0 || n >= placed {
				t.Fatalf("the store holds %d of %d greedy placements: no pack resumed, the check compared nothing", n, placed)
			}
		})
	}
}

// TestPrefixStoreConcurrent has 3 goroutines pack interleaved
// configurations of each design into one store at once (occupancy and
// rectangle, as the tournament does), and requires every schedule to
// equal its pack without a store. Under -race it also checks the
// store's locking.
func TestPrefixStoreConcurrent(t *testing.T) {
	const packers = 3
	for _, ds := range prefixDesigns(t) {
		t.Run(ds.name, func(t *testing.T) {
			t.Parallel()
			for _, w := range []int{16, 40, 64} {
				configs := configJobs(t, ds.d, ds.parts, w)
				want := make([][2]*tam.Schedule, len(configs))
				for i, jobs := range configs {
					for b, pk := range []tam.Packer{tam.OccupancyPacker{}, tam.RectanglePacker{}} {
						s, err := pk.Pack(jobs, w)
						if err != nil {
							t.Fatalf("W=%d %v: %v", w, ds.parts[i], err)
						}
						want[i][b] = s
					}
				}
				st := tam.NewPrefixStore()
				got := make([][2]*tam.Schedule, len(configs))
				errs := make([]error, packers)
				var wg sync.WaitGroup
				for g := range packers {
					wg.Add(1)
					go func() {
						defer wg.Done()
						for i := g; i < len(configs); i += packers {
							for b, pk := range []tam.Packer{tam.OccupancyPacker{}, tam.RectanglePacker{}} {
								s, err := pk.Pack(configs[i], w, tam.WithPrefixStore(st))
								if err != nil {
									errs[g] = err
									return
								}
								got[i][b] = s
							}
						}
					}()
				}
				wg.Wait()
				for _, err := range errs {
					if err != nil {
						t.Fatalf("W=%d: %v", w, err)
					}
				}
				for i := range configs {
					for b, name := range []string{"occupancy", "rectangle"} {
						samePack(t, fmt.Sprintf("W=%d %s %v", w, name, ds.parts[i]), got[i][b], want[i][b])
					}
				}
			}
		})
	}
}

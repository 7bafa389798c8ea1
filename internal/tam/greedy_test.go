package tam_test

import (
	"fmt"
	"slices"
	"sync/atomic"
	"testing"

	"mixsoc/internal/core"
	"mixsoc/internal/partition"
	"mixsoc/internal/registry"
	"mixsoc/internal/socgen"
	"mixsoc/internal/tam"
)

// greedyWidths are the bin widths the greedy-polish property packs at.
var greedyWidths = []int{16, 24, 32, 40, 48, 56, 64}

// Optimize skips the repack + improve polish on a cold winner improve
// left untouched, on the argument that the polish is then the identity.
// Pin the premise rather than trust it: over the 200 property-suite
// designs and every registry design, at each width and for the all-share
// and no-share configurations (every configuration for the registry's
// mixed designs), the polish must leave every greedy winner's
// placements — and so Optimize's result — exactly as packed.
func TestRepackIdentityOnGreedyWinners(t *testing.T) {
	type design struct {
		name  string
		d     *core.Design
		parts []partition.Partition
	}
	var designs []design
	for seed := int64(1); seed <= 200; seed++ {
		d, err := socgen.Generate(socgen.Options{Seed: seed, Class: socgen.Small})
		if err != nil {
			t.Fatal(err)
		}
		designs = append(designs, design{fmt.Sprintf("seed%03d", seed), d,
			[]partition.Partition{d.AllShare(), d.NoShare()}})
	}
	for _, name := range registry.Names() {
		d, err := registry.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		parts := []partition.Partition{d.AllShare()}
		if len(d.Analog) > 0 {
			parts = d.Candidates(partition.AllowAllPolicy)
		}
		designs = append(designs, design{name, d, parts})
	}

	var greedy, polished atomic.Int64
	t.Run("designs", func(t *testing.T) {
		for _, ds := range designs {
			t.Run(ds.name, func(t *testing.T) {
				t.Parallel()
				for _, w := range greedyWidths {
					for _, p := range ds.parts {
						if checkGreedyPolish(t, ds.d, p, w) {
							greedy.Add(1)
						} else {
							polished.Add(1)
						}
					}
				}
			})
		}
	})
	if greedy.Load() == 0 {
		t.Fatal("no greedy cold winner: the property checked nothing")
	}
	t.Logf("%d greedy cold winners checked, %d winners that improve moved", greedy.Load(), polished.Load())
}

// checkGreedyPolish packs one configuration cold and, when the winner
// is greedy, asserts that the polish and Optimize both leave it as
// packed. It reports whether the winner was greedy.
func checkGreedyPolish(t *testing.T, d *core.Design, p partition.Partition, w int) bool {
	t.Helper()
	jobs, err := core.BuildJobs(d, p, w)
	if err != nil {
		t.Fatalf("W=%d: BuildJobs: %v", w, err)
	}
	winner, moved, err := tam.ColdWinner(jobs, w)
	if err != nil {
		t.Fatalf("W=%d %v: %v", w, p, err)
	}
	if moved {
		return false
	}
	want := winner.ByEnd()
	cp := &tam.Schedule{Width: winner.Width, Makespan: winner.Makespan,
		Placements: slices.Clone(winner.Placements)}
	tam.Polish(cp, jobs)
	if cp.Makespan != winner.Makespan || !slices.Equal(cp.ByEnd(), want) {
		t.Fatalf("W=%d %v: the polish moved a greedy winner (makespan %d -> %d)",
			w, p, winner.Makespan, cp.Makespan)
	}
	s, err := tam.Optimize(jobs, w)
	if err != nil {
		t.Fatal(err)
	}
	if s.Makespan != winner.Makespan || !slices.Equal(s.ByEnd(), want) {
		t.Fatalf("W=%d %v: Optimize differs from its greedy cold winner", w, p)
	}
	return true
}

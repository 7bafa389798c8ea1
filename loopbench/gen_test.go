package main

import (
	"bytes"
	"math"
	"testing"
)

func generators(t *testing.T, seed int64) map[string]generator {
	t.Helper()
	gens := map[string]generator{}
	for name, spec := range workloads {
		g, err := spec.gen(seed)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		gens[name] = g
	}
	return gens
}

func streamOf(t *testing.T, g generator, n int) []call {
	t.Helper()
	calls := make([]call, n)
	for i := range calls {
		c, err := g.call(i)
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
		calls[i] = c
	}
	return calls
}

// bodyOf concatenates a call's request kinds and bodies.
func bodyOf(c call) []byte {
	var b []byte
	for _, r := range c.reqs {
		b = append(append(b, byte(r.kind)), r.body...)
	}
	return b
}

func TestSameSeedSameStream(t *testing.T) {
	a, b := generators(t, 7), generators(t, 7)
	for name := range workloads {
		sa, sb := streamOf(t, a[name], 40), streamOf(t, b[name], 40)
		for i := range sa {
			if !bytes.Equal(bodyOf(sa[i]), bodyOf(sb[i])) {
				t.Fatalf("%s: call %d differs between two generators of seed 7", name, i)
			}
		}
		// Call i does not depend on which calls were generated before it.
		late, err := generators(t, 7)[name].call(39)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(bodyOf(late), bodyOf(sa[39])) {
			t.Errorf("%s: call 39 generated alone differs from call 39 of the stream", name)
		}
	}
}

func TestDifferentSeedsDifferentStreams(t *testing.T) {
	a, b := generators(t, 7), generators(t, 8)
	for name := range workloads {
		sa, sb := streamOf(t, a[name], 20), streamOf(t, b[name], 20)
		same := 0
		for i := range sa {
			if bytes.Equal(bodyOf(sa[i]), bodyOf(sb[i])) {
				same++
			}
		}
		// plan-hot draws from small working sets, so single calls may
		// coincide; whole streams must not.
		if same == len(sa) {
			t.Errorf("%s: seeds 7 and 8 give the same %d calls", name, len(sa))
		}
	}
}

func TestColdSharesFollowTheMix(t *testing.T) {
	calls := streamOf(t, coldGen{seed: 3}, 800)
	draws := map[string]int{}
	for _, c := range calls {
		for _, d := range c.draws {
			draws[d]++
		}
	}
	sh := shares(draws)
	for _, want := range []struct {
		dim, val  string
		share, by float64
	}{
		{"class", "small", 0.50, 0.05},
		{"class", "medium", 0.35, 0.05},
		{"class", "large", 0.15, 0.04},
		{"solver", "heuristic", 0.81, 0.04},
		{"solver", "rectangle", 0.10, 0.03},
		{"solver", "bounded", 0.085, 0.03},
		{"duplicate", "true", 0.25, 0},
		{"revision", "true", 0.24, 0.04},
	} {
		if got := sh[want.dim][want.val]; math.Abs(got-want.share) > want.by+1e-9 {
			t.Errorf("%s=%s drawn %.3f of the time, want %.3f±%.2f", want.dim, want.val, got, want.share, want.by)
		}
	}
	batches := 0
	for _, c := range calls {
		if c.reqs[0].kind == kindBatch {
			batches++
			if c.plans != batchItems {
				t.Errorf("batch of %d plans", c.plans)
			}
		}
	}
	if f := float64(batches) / float64(len(calls)); math.Abs(f-1.0/batchEvery) > 0.04 {
		t.Errorf("batches are %.3f of calls, want about %.3f", f, 1.0/batchEvery)
	}
}

func TestSweepRevisionsNeverRepeat(t *testing.T) {
	g, err := newSweepGen(5)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]int{}
	for i, c := range streamOf(t, g, 60) {
		if j, dup := seen[string(c.reqs[0].body)]; dup {
			t.Fatalf("calls %d and %d sweep the same design", j, i)
		}
		seen[string(c.reqs[0].body)] = i
		// Heuristic then exhaustive; the heuristic runs as a job on odd
		// calls, the exhaustive search on even ones.
		want := []kind{kindSweep, kindJob}
		if i%2 == 1 {
			want = []kind{kindJob, kindSweep}
		}
		if len(c.reqs) != 2 || c.reqs[0].kind != want[0] || c.reqs[1].kind != want[1] || c.plans != 30 {
			t.Errorf("call %d: %d requests delivering %d plans, want kinds %v delivering 30", i, len(c.reqs), c.plans, want)
		}
	}
}

func TestHotWorkingSet(t *testing.T) {
	g, err := newHotGen(9)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.entries) != 24 {
		t.Fatalf("working set of %d entries, want 6 designs x 4 widths", len(g.entries))
	}
	for _, c := range streamOf(t, g, 200) {
		if c.entry < 0 || c.entry >= len(g.entries) {
			t.Fatalf("call outside the working set: entry %d", c.entry)
		}
	}
}

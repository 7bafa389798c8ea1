package main

import (
	"crypto/sha256"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so the helpers must sort
	}
	return xs
}

func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{4}, 4},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(tc.xs); got != tc.want {
			t.Errorf("median(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
	xs := []float64{3, 1, 2}
	median(xs)
	if xs[0] != 3 {
		t.Error("median reordered its input")
	}
}

func TestTailRule(t *testing.T) {
	for _, tc := range []struct {
		n, wantP   int
		wantValue  float64
		wantBeyond int
	}{
		{0, 50, 0, 0},
		{1, 50, 1, 0},
		{19, 50, 10, 9},  // under 40 samples: fewer than 10 beyond p75
		{39, 50, 20, 19}, // p75 has 9 beyond: falls back to the median
		{40, 75, 30, 10}, // p75 has exactly 10 beyond
		{99, 75, 75, 24}, // p90 has 9 beyond
		{100, 90, 90, 10},
		{999, 90, 900, 99}, // p99 has 9 beyond
		{1000, 99, 990, 10},
	} {
		got := tailOf(seq(tc.n), 99)
		if got.P != tc.wantP || got.Value != tc.wantValue || got.Beyond != tc.wantBeyond || got.N != tc.n {
			t.Errorf("n=%d: got p%d=%v with %d beyond of %d, want p%d=%v with %d beyond",
				tc.n, got.P, got.Value, got.Beyond, got.N, tc.wantP, tc.wantValue, tc.wantBeyond)
		}
	}
}

func TestTailCeiling(t *testing.T) {
	if got := tailOf(seq(2000), 90); got.P != 90 || got.Value != 1800 || got.Beyond != 200 {
		t.Errorf("ceiling 90 over 2000 samples: got p%d=%v with %d beyond, want p90=1800 with 200", got.P, got.Value, got.Beyond)
	}
	if got := tailOf(seq(30), 90); got.P != 50 {
		t.Errorf("ceiling 90 over 30 samples: got p%d, want the p50 fallback", got.P)
	}
}

func TestRatio(t *testing.T) {
	if ratio(1, 0) != 0 || ratio(3, 4) != 0.75 {
		t.Error("ratio")
	}
}

func TestGateCountsACorruptedBody(t *testing.T) {
	body := []byte(`{"design_hash":"abc","width":32}` + "\n")
	if !selfTest(body) {
		t.Fatal("the self-test did not count a corrupted body")
	}
	if selfTest(nil) {
		t.Error("the self-test passed without a body")
	}
	ref := reference{sum: sha256.Sum256(body), costs: []float64{2, 4}}
	ok := outcome{sum: sha256.Sum256(body)}
	var v verdict
	v.add(0, ok, ref)
	if v.failed != 0 || v.costN != 2 || v.costSum != 6 {
		t.Errorf("identical bytes: %+v, want no failure and both costs", v)
	}
	for name, bad := range map[string]reference{
		"failed batch item": {sum: ref.sum, failedItems: 1},
		"other bytes":       {sum: sha256.Sum256([]byte("{}\n"))},
	} {
		var v verdict
		v.add(1, ok, bad)
		if v.failed != 1 || v.firstErr == nil || v.costN != 0 {
			t.Errorf("%s: %+v, want one failure", name, v)
		}
	}
}

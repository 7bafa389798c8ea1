package main

import (
	"math"
	"sort"
)

// metric is one printed value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// median returns the middle of xs (the mean of the two middle values
// for an even count), or 0 for no samples. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// minBeyond is how many samples must lie above a percentile before the
// tail may be reported at it.
const minBeyond = 10

// tail is the reported tail latency: the percentile used, its value,
// and the sample counts behind it.
type tail struct {
	P      int // 99, 90 or 75; 50 when no tail percentile is supported
	Value  float64
	N      int // samples
	Beyond int // samples strictly above the percentile's rank
}

// nearestRank returns the p-th percentile of ascending s by the
// nearest-rank rule and the number of samples ranked above it.
func nearestRank(s []float64, p int) (float64, int) {
	rank := int(math.Ceil(float64(p) / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1], len(s) - rank
}

// tailOf picks the highest of p99, p90 and p75, at most ceiling, that
// still has at least ten samples beyond it. When none has (fewer than
// 40 samples), the tail falls back to the nearest-rank median so it
// never claims more than the sample supports.
func tailOf(xs []float64, ceiling int) tail {
	if len(xs) == 0 {
		return tail{P: 50}
	}
	s := sorted(xs)
	for _, p := range []int{99, 90, 75} {
		if p > ceiling {
			continue
		}
		if v, beyond := nearestRank(s, p); beyond >= minBeyond {
			return tail{P: p, Value: v, N: len(s), Beyond: beyond}
		}
	}
	v, beyond := nearestRank(s, 50)
	return tail{P: 50, Value: v, N: len(s), Beyond: beyond}
}

// ratio is num/den, or 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

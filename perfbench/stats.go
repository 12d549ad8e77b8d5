package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a reported percentile:
// a tail figure resting on fewer observations is noise, so it is
// refused rather than printed.
const minBeyond = 10

// percentile returns the p-quantile (0 < p < 1) of xs by the
// nearest-rank rule together with the sample count. It fails when
// fewer than minBeyond samples lie strictly beyond the chosen rank;
// the median (p = 0.5) is always allowed on a non-empty sample.
func percentile(xs []float64, p float64) (float64, int, error) {
	n := len(xs)
	if n == 0 {
		return 0, 0, fmt.Errorf("p%g of an empty sample", p*100)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if p == 0.5 {
		return median(s), n, nil
	}
	rank := int(math.Ceil(p * float64(n))) // 1-based nearest rank
	if rank < 1 {
		rank = 1
	}
	if beyond := n - rank; beyond < minBeyond {
		return 0, n, fmt.Errorf("p%g over %d samples has %d beyond it, want at least %d",
			p*100, n, beyond, minBeyond)
	}
	return s[rank-1], n, nil
}

// median returns the middle value (mean of the two middle values for
// an even count) of a sample, and 0 for an empty one (a pass whose
// jobs all failed, which the correctness gate reports).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

package main

import (
	"math"
	"sort"
)

// percentileOf returns the q-quantile (0 <= q <= 1) of xs by linear
// interpolation between order statistics, the same rule as numpy's
// default. xs need not be sorted; it is not modified.
func percentileOf(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return sortedPercentile(s, q)
}

func sortedPercentile(s []float64, q float64) float64 {
	if len(s) == 1 {
		return s[0]
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return percentileOf(xs, 0.5) }

// minBeyond is how many samples must lie beyond a reported tail
// percentile for it to be more than one or two outliers.
const minBeyond = 10

// tailPercentile returns the highest percentile, in whole percent from
// 50 to 99 or else 99.9, that leaves at least minBeyond of n samples
// beyond it. It returns 0 when even the median leaves fewer.
//
// Workloads report their tail at a fixed percentile chosen with this
// helper from the recorded baseline sample counts, not at the value it
// returns for each run: a change that made the program slower would
// otherwise shrink the sample and be judged at a lower, kinder
// percentile.
func tailPercentile(n int) float64 {
	if float64(n)*(1-0.999) >= minBeyond {
		return 99.9
	}
	for p := 99; p >= 50; p-- {
		// Whole-number arithmetic: n*(100-p)/100 >= minBeyond.
		if n*(100-p) >= minBeyond*100 {
			return float64(p)
		}
	}
	return 0
}

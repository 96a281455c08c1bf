package main

import (
	"math"
	"slices"
)

// quantile returns the q-quantile of xs by linear interpolation between
// the closest ranks, or 0 for no samples. xs is not modified.
func quantile[T float32 | float64](xs []T, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(s) {
		return float64(s[len(s)-1])
	}
	return float64(s[lo]) + (pos-float64(lo))*float64(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// metric is one reported figure. samples is the number of timings
// behind a percentile, or 0 for a ratio of totals.
type metric struct {
	name    string
	value   float64
	unit    string
	samples int
}

// perOp divides a count by the number of ops.
func perOp(n int64, ops int) float64 {
	if ops == 0 {
		return 0
	}
	return float64(n) / float64(ops)
}

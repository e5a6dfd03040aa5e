package main

import (
	"math"
	"sort"
)

// Reported figures pool every round of a run: query_qps is the answers
// completed over the whole measured time, and a percentile is taken over
// all samples. On a shared host the machine's speed drifts by up to a
// fifth for stretches of 10-30 s; pooling averages a run over those
// stretches, where a median of one-second slices snaps to whichever
// stretch lasted longest.

// percentile is the nearest-rank percentile of sorted values.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

func mean(xs []float64) float64 {
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

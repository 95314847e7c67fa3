package main

import (
	"math"
	"slices"
)

// sorted returns an ascending copy of v.
func sorted(v []float64) []float64 { return slices.Sorted(slices.Values(v)) }

// percentile returns the nearest-rank q-quantile (0 < q <= 1) of an
// ascending slice, NaN when it is empty.
func percentile(asc []float64, q float64) float64 {
	if len(asc) == 0 {
		return math.NaN()
	}
	rank := int(math.Ceil(q * float64(len(asc))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(asc) {
		rank = len(asc)
	}
	return asc[rank-1]
}

// median is the mean of the two middle values for even counts, so the
// median of rounds does not depend on which middle round ran hot.
func median(v []float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	asc := sorted(v)
	mid := len(asc) / 2
	if len(asc)%2 == 1 {
		return asc[mid]
	}
	return (asc[mid-1] + asc[mid]) / 2
}

// tail is the highest of p90, p99 and p99.9 that still has at least ten
// samples beyond it: the percentile a timing is reported at besides its
// median.
type tail struct {
	Label string  `json:"label"`
	Value float64 `json:"value"`
}

func tailPercentile(asc []float64) (tail, bool) {
	for _, c := range []struct {
		label string
		q     float64
	}{{"p99.9", 0.999}, {"p99", 0.99}, {"p90", 0.90}} {
		rank := int(math.Ceil(c.q * float64(len(asc))))
		if len(asc)-rank >= 10 {
			return tail{c.label, asc[rank-1]}, true
		}
	}
	return tail{}, false
}

// spread is the distance between the first and third quartile as a
// share of the median, with the quartiles of Python's
// statistics.quantiles(v, n=4) (the "exclusive" method), which is what
// the acceptance driver computes.
func spread(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	asc := sorted(v)
	m1 := len(asc) + 1
	quart := func(i int) float64 {
		j := min(max(i*m1/4, 1), len(asc)-1)
		delta := i*m1 - j*4
		return (asc[j-1]*float64(4-delta) + asc[j]*float64(delta)) / 4
	}
	m := median(asc)
	if m == 0 {
		return 0
	}
	return math.Abs(quart(3)-quart(1)) / math.Abs(m)
}

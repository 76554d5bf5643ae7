package main

import (
	"math"
	"sort"
)

// samples collects latencies of one op class in milliseconds.
type samples []float64

// quantile returns the q-quantile of sorted values by linear interpolation
// between closest ranks (the "inclusive" method: q=0 is the minimum, q=1 the
// maximum). It returns NaN for an empty input.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

// supported reports whether n samples are enough to print the q-quantile: at
// least ten samples must lie beyond it (on its thinner side), so a p95 needs
// 200 samples and a median 20.
func supported(n int, q float64) bool {
	tail := q
	if 1-q < tail {
		tail = 1 - q
	}
	return math.Floor(float64(n)*tail) >= 10
}

// summary is what results.json carries per metric.
type summary struct {
	N      int     `json:"n"`
	Q1     float64 `json:"q1"`
	Median float64 `json:"median"`
	Q3     float64 `json:"q3"`
}

func sortedCopy(v []float64) []float64 {
	out := append([]float64(nil), v...)
	sort.Float64s(out)
	return out
}

func summarize(v []float64) summary {
	s := sortedCopy(v)
	if len(s) == 0 {
		return summary{}
	}
	return summary{N: len(s), Q1: quantile(s, 0.25), Median: quantile(s, 0.5), Q3: quantile(s, 0.75)}
}

func median(v []float64) float64 { return quantile(sortedCopy(v), 0.5) }

// spread is the distance between the first and third quartile as a share of
// the median, with the quartiles as Python's statistics.quantiles(v, n=4)
// gives them (the "exclusive" method), which is what the driver computes.
func spread(v []float64) float64 {
	s := sortedCopy(v)
	n := len(s)
	if n < 2 {
		return 0
	}
	at := func(i int) float64 { // i-th quartile cut, exclusive method
		j, delta := i*(n+1)/4, i*(n+1)%4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	med := quantile(s, 0.5)
	if med == 0 {
		return 0
	}
	return (at(3) - at(1)) / math.Abs(med)
}

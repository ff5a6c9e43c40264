package main

import (
	"fmt"
	"math"
	"sort"
)

// quantile returns the q-quantile of sorted by linear interpolation between
// closest ranks. It never bins: every percentile the benchmark reports comes
// from raw samples through this function.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	switch {
	case n == 0:
		return 0
	case n == 1 || q <= 0:
		return sorted[0]
	case q >= 1:
		return sorted[n-1]
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	if lo+1 >= n {
		return sorted[n-1]
	}
	frac := pos - float64(lo)
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

// dist summarises raw samples: count, median, p99, and the highest
// percentile that still has at least ten samples beyond it (tailQ = 0 when
// there are too few samples for any).
type dist struct {
	N     int
	P50   float64
	P99   float64
	TailQ float64
	Tail  float64
	Sum   float64
}

func summarize(samples []float64) dist {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	d := dist{N: len(s), P50: quantile(s, 0.5), P99: quantile(s, 0.99)}
	for _, v := range s {
		d.Sum += v
	}
	if len(s) > 10 {
		d.TailQ = 1 - 10/float64(len(s))
		d.Tail = quantile(s, d.TailQ)
	}
	return d
}

// String renders the distribution with its sample count and tail
// percentile, scaled to the given unit.
func (d dist) String() string {
	tail := "too few samples for a tail percentile"
	if d.TailQ > 0 {
		tail = fmt.Sprintf("p%.4g=%.6g", 100*d.TailQ, d.Tail)
	}
	return fmt.Sprintf("n=%d p50=%.6g p99=%.6g %s", d.N, d.P50, d.P99, tail)
}

// spread is the median and quartiles of one metric over a run's
// repetitions.
type spread struct {
	N          int
	Q1, Median float64
	Q3         float64
}

func spreadOf(reps []float64) spread {
	s := append([]float64(nil), reps...)
	sort.Float64s(s)
	return spread{N: len(s), Q1: quantile(s, 0.25), Median: quantile(s, 0.5), Q3: quantile(s, 0.75)}
}

// ratio divides guarding an empty base; the benchmark prints every ratio
// next to its base, so a zero base reads as 0 rather than NaN.
func ratio(num, base float64) float64 {
	if base == 0 {
		return 0
	}
	return num / base
}

package main

import (
	"math"
	"sort"
)

// sample is one delivery observation: n operations that were due together
// arrived together. at and lat are nanoseconds on the recorder clock.
type sample struct {
	at  int64 // entry of the apply call that carried them
	lat int64 // at minus the due time
	n   int32
}

// quantile returns the q-quantile of vals by nearest rank (the smallest
// value with at least q of the mass at or below it). vals is sorted in
// place; an empty slice gives 0.
func quantile(vals []float64, q float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	sort.Float64s(vals)
	i := int(math.Ceil(q*float64(len(vals)))) - 1
	return vals[min(max(i, 0), len(vals)-1)]
}

func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	sort.Float64s(vals)
	m := len(vals) / 2
	if len(vals)%2 == 1 {
		return vals[m]
	}
	return (vals[m-1] + vals[m]) / 2
}

func mean(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := 0.0
	for _, v := range vals {
		s += v
	}
	return s / float64(len(vals))
}

// weightedQuantile is quantile over samples counted n times each. It sorts
// the slice by latency.
func weightedQuantile(s []sample, q float64) int64 {
	if len(s) == 0 {
		return 0
	}
	sort.Slice(s, func(i, j int) bool { return s[i].lat < s[j].lat })
	var total int64
	for i := range s {
		total += int64(s[i].n)
	}
	want := int64(math.Ceil(q * float64(total)))
	var cum int64
	for i := range s {
		cum += int64(s[i].n)
		if cum >= want {
			return s[i].lat
		}
	}
	return s[len(s)-1].lat
}

// windowedP99 is the tail reducer: cut [from, to) into windows of width
// nanoseconds by arrival time, drop the first and the last window (ramp-up
// and the drain tail land there), take each remaining non-empty window's
// weighted p99 and return their median, with the number of windows used.
// A whole-run p99 swings with one bad second; the median of per-second
// p99s does not.
func windowedP99(s []sample, from, to, width int64) (p99 int64, windows int) {
	n := int((to - from + width - 1) / width)
	if n < 3 {
		return weightedQuantile(s, 0.99), 1
	}
	buckets := make([][]sample, n)
	for _, x := range s {
		if x.at < from || x.at >= to {
			continue
		}
		i := int((x.at - from) / width)
		buckets[i] = append(buckets[i], x)
	}
	var p99s []float64
	for _, b := range buckets[1 : n-1] {
		if len(b) > 0 {
			p99s = append(p99s, float64(weightedQuantile(b, 0.99)))
		}
	}
	if len(p99s) == 0 {
		return weightedQuantile(s, 0.99), 1
	}
	return int64(median(p99s)), len(p99s)
}

// quartiles returns the first, second and third quartile exactly as
// Python's statistics.quantiles(values, n=4) does (the exclusive method),
// which is what the driver computes spreads with.
func quartiles(vals []float64) (q1, q2, q3 float64) {
	d := append([]float64(nil), vals...)
	sort.Float64s(d)
	ld := len(d)
	if ld < 2 {
		if ld == 1 {
			return d[0], d[0], d[0]
		}
		return 0, 0, 0
	}
	cut := func(i int) float64 {
		m := ld + 1
		j := i * m / 4
		j = min(max(j, 1), ld-1)
		delta := i*m - j*4
		return (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

package main

import (
	"math"
	"sort"
)

// Dist holds exact samples. Percentiles are read from the sorted samples
// themselves (nearest rank), never from histogram buckets, and always
// carry the sample count they were computed from.
type Dist struct {
	vals   []float64
	sorted bool
}

// Add records one sample.
func (d *Dist) Add(v float64) {
	d.vals = append(d.vals, v)
	d.sorted = false
}

// N is the number of samples.
func (d *Dist) N() int { return len(d.vals) }

// Percentile is one exact order statistic of a Dist.
type Percentile struct {
	Q      float64 // requested quantile in (0, 1]
	Value  float64 // the sample at nearest rank ceil(Q·N)
	N      int     // samples the value was read from
	Beyond int     // samples ranked above it
}

// Percentile returns the nearest-rank q-quantile: the smallest sample with
// at least q·N samples at or below it. With no samples it returns a zero
// Value and N = 0.
func (d *Dist) Percentile(q float64) Percentile {
	n := len(d.vals)
	if n == 0 {
		return Percentile{Q: q}
	}
	if !d.sorted {
		sort.Float64s(d.vals)
		d.sorted = true
	}
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return Percentile{Q: q, Value: d.vals[rank-1], N: n, Beyond: n - rank}
}

// Tail returns the highest of the given quantiles (tried from the last) that
// still has at least minBeyond samples ranked above it; with too few samples
// for any of them it returns the maximum, whose Beyond is 0.
func (d *Dist) Tail(minBeyond int, qs ...float64) Percentile {
	for i := len(qs) - 1; i >= 0; i-- {
		if p := d.Percentile(qs[i]); p.N > 0 && p.Beyond >= minBeyond {
			return p
		}
	}
	return d.Percentile(1)
}

// median is the nearest-rank median of a slice, without modifying it.
func median(xs []float64) float64 {
	var d Dist
	for _, x := range xs {
		d.Add(x)
	}
	return d.Percentile(0.5).Value
}

// Segmented splits samples (in due order) into k consecutive segments and
// returns the median over the segments of each segment's q-percentile, so
// one burst of host noise moves at most one segment. q is the highest of
// qs that leaves at least minBeyond samples above it in every segment. N is
// the total sample count and Beyond the fewest samples above the
// percentile in any segment.
func Segmented(vals []float64, k, minBeyond int, qs ...float64) Percentile {
	if k > len(vals) {
		k = len(vals)
	}
	if k == 0 {
		return Percentile{Q: qs[0]}
	}
	segs := make([]Dist, k)
	for i, v := range vals {
		segs[i*k/len(vals)].Add(v)
	}
	q := qs[0]
	for i := len(qs) - 1; i >= 0; i-- {
		ok := true
		for s := range segs {
			ok = ok && segs[s].Percentile(qs[i]).Beyond >= minBeyond
		}
		if ok {
			q = qs[i]
			break
		}
	}
	var values []float64
	beyond := len(vals)
	for s := range segs {
		p := segs[s].Percentile(q)
		values = append(values, p.Value)
		beyond = min(beyond, p.Beyond)
	}
	return Percentile{Q: q, Value: median(values), N: len(vals), Beyond: beyond}
}

// segmentsFor is how many segments Segmented should split n samples into:
// at most 10, each of at least 100 samples, so a segment's p90 still has
// ten samples beyond it.
func segmentsFor(n int) int { return min(10, max(1, n/100)) }

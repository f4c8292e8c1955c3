package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie above a percentile before the
// benchmark reports it: a tail figure resting on fewer is one outlier.
const minBeyond = 10

// dist summarises one set of timings (or any other per-operation values).
type dist struct {
	vals   []float64
	sorted bool
}

func (d *dist) add(v float64)          { d.vals = append(d.vals, v); d.sorted = false }
func (d *dist) addDur(v time.Duration) { d.add(float64(v)) }
func (d *dist) n() int                 { return len(d.vals) }
func (d *dist) merge(o *dist)          { d.vals = append(d.vals, o.vals...); d.sorted = false }

func (d *dist) sort() {
	if !d.sorted {
		sort.Float64s(d.vals)
		d.sorted = true
	}
}

// quantile returns the nearest-rank p-quantile (0 < p <= 1) and how many
// samples lie strictly beyond its rank. An empty set reads NaN.
func (d *dist) quantile(p float64) (v float64, beyond int) {
	if len(d.vals) == 0 {
		return math.NaN(), 0
	}
	d.sort()
	rank := int(math.Ceil(p * float64(len(d.vals))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(d.vals) {
		rank = len(d.vals)
	}
	return d.vals[rank-1], len(d.vals) - rank
}

func (d *dist) p50() float64 { v, _ := d.quantile(0.5); return v }

func (d *dist) max() float64 {
	if len(d.vals) == 0 {
		return math.NaN()
	}
	d.sort()
	return d.vals[len(d.vals)-1]
}

func (d *dist) mean() float64 {
	if len(d.vals) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, v := range d.vals {
		s += v
	}
	return s / float64(len(d.vals))
}

// tail returns the highest of p99, p90 and p50 that has at least
// minBeyond samples beyond it, with its label; when even the median has
// too few (a handful of long operations), the slowest sample stands in
// and is labelled "max".
func (d *dist) tail() (v float64, label string) {
	for _, q := range []struct {
		p     float64
		label string
	}{{0.99, "p99"}, {0.90, "p90"}, {0.50, "p50"}} {
		if qv, beyond := d.quantile(q.p); beyond >= minBeyond {
			return qv, q.label
		}
	}
	return d.max(), "max"
}

// selfTime is a span's duration minus the part of its interval that its
// children cover; overlapping children are merged so shared time counts
// once. Child intervals are clipped to the parent.
func selfTime(parent interval, children []interval) int64 {
	cs := make([]interval, 0, len(children))
	for _, c := range children {
		if c.start < parent.start {
			c.start = parent.start
		}
		if c.end > parent.end {
			c.end = parent.end
		}
		if c.end > c.start {
			cs = append(cs, c)
		}
	}
	sort.Slice(cs, func(i, j int) bool { return cs[i].start < cs[j].start })
	covered := int64(0)
	var cur interval
	for i, c := range cs {
		if i == 0 || c.start > cur.end {
			covered += cur.end - cur.start
			cur = c
			continue
		}
		if c.end > cur.end {
			cur.end = c.end
		}
	}
	if len(cs) > 0 {
		covered += cur.end - cur.start
	}
	return parent.end - parent.start - covered
}

// interval is a half-open [start, end) span of nanoseconds.
type interval struct{ start, end int64 }

// ratio is hits/base with its base reported beside it; a zero base reads 0.
func ratio(hits, base int64) float64 {
	if base == 0 {
		return 0
	}
	return float64(hits) / float64(base)
}

package main

import (
	"math"
	"slices"
	"sort"
)

// median of xs (0 when empty).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// reservoirSize bounds the latencies a section keeps: 64 Ki samples put
// over 600 beyond the p99, in 512 KiB whatever the section's length.
const reservoirSize = 1 << 16

// latencies keeps a uniform random sample (Vitter's algorithm R) of the
// wall latencies recorded in one section, in fixed memory, so the log
// does not grow with the host's or the simulator's speed.
type latencies struct {
	n    int64   // latencies recorded
	kept []int64 // ns
	rng  uint64
}

func newLatencies() latencies { return latencies{kept: make([]int64, 0, reservoirSize)} }

func (l *latencies) reset() { l.n, l.kept, l.rng = 0, l.kept[:0], 0 }

// add records one latency in ns.
func (l *latencies) add(ns int64) {
	l.n++
	if len(l.kept) < reservoirSize {
		l.kept = append(l.kept, ns)
		return
	}
	// splitmix64: the sample the reservoir keeps needs no seed of its own.
	l.rng += 0x9e3779b97f4a7c15
	z := l.rng
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	z ^= z >> 31
	if j := z % uint64(l.n); j < reservoirSize {
		l.kept[j] = ns
	}
}

// percentile is the nearest-rank p-quantile of the kept latencies in ns
// (0 when none).
func (l *latencies) percentile(p float64) float64 {
	if len(l.kept) == 0 {
		return 0
	}
	s := slices.Clone(l.kept)
	slices.Sort(s)
	i := int(math.Ceil(float64(len(s))*p)) - 1
	return float64(s[min(max(i, 0), len(s)-1)])
}

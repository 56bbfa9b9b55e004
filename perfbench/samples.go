package main

import (
	"math"
	"sort"
	"time"
)

// epoch anchors the benchmark's own monotonic timestamps.
var epoch = time.Now()

// now is nanoseconds since epoch on the monotonic clock.
func now() int64 { return int64(time.Since(epoch)) }

// samples holds exact per-operation latencies in nanoseconds. Every
// percentile the benchmark reports comes from these sorted samples,
// never from the program's log2 histograms.
type samples []int64

func (s samples) sorted() samples {
	out := append(samples(nil), s...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// pct is the nearest-rank percentile of sorted samples, p in [0, 100];
// 0 when there are none.
func (s samples) pct(p float64) float64 {
	if len(s) == 0 {
		return 0
	}
	i := int(math.Ceil(p/100*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return float64(s[i])
}

// mean in nanoseconds; 0 when empty.
func (s samples) mean() float64 {
	if len(s) == 0 {
		return 0
	}
	var t int64
	for _, v := range s {
		t += v
	}
	return float64(t) / float64(len(s))
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	c := append([]float64(nil), v...)
	sort.Float64s(c)
	if len(c)%2 == 1 {
		return c[len(c)/2]
	}
	return (c[len(c)/2-1] + c[len(c)/2]) / 2
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

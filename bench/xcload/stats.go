package main

import (
	"fmt"
	"math"
	"regexp"
	"sort"
)

// percentile returns the p-quantile (0 <= p <= 1) of vals by the
// nearest-rank rule on a sorted copy: the smallest value with at least
// p of the samples at or below it. Empty input yields 0.
func percentile(vals []float64, p float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	rank := int(math.Ceil(p*float64(len(s)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(s) {
		rank = len(s) - 1
	}
	return s[rank]
}

// median is the middle value of vals (mean of the two middle values for
// an even count). Empty input yields 0.
func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// coefVar is the coefficient of variation (population standard
// deviation over mean) of vals; 0 when the mean is 0.
func coefVar(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	var sum float64
	for _, v := range vals {
		sum += v
	}
	mean := sum / float64(len(vals))
	if mean == 0 {
		return 0
	}
	var sq float64
	for _, v := range vals {
		sq += (v - mean) * (v - mean)
	}
	return math.Sqrt(sq/float64(len(vals))) / mean
}

// sample is one completed operation of a timed phase.
type sample struct {
	end   int64 // completion time, ns since the phase began
	lat   int64 // latency in ns
	write bool
}

// windowStats is what one timed phase reduces to. Rates and latency
// medians are medians over the per-window values, never whole-run
// means: one slow window (a GC cycle, a noisy neighbour) moves a mean
// but not the median of eight.
type windowStats struct {
	windows    int
	ops        int     // completed inside the windows
	opsPerSec  float64 // median of per-window completed ops / window length
	readP50ms  float64 // median of per-window median read latency
	readP99ms  float64 // p99 of all read latencies in the windows
	writeP50ms float64 // median of per-window median write latency (0 without writes)
	writeP99ms float64
	windowCV   float64 // spread of the per-window rates
	readCount  int
	writeCount int
}

// reduceWindows buckets samples into n windows of length win (ns) by
// completion time and reduces them. Samples completing after the last
// window are dropped.
func reduceWindows(samples []sample, n int, win int64) windowStats {
	counts := make([]float64, n)
	reads := make([][]float64, n)
	writes := make([][]float64, n)
	var allReads, allWrites []float64
	ws := windowStats{windows: n}
	for _, s := range samples {
		w := int(s.end / win)
		if s.end < 0 || w >= n {
			continue
		}
		ws.ops++
		counts[w]++
		ms := float64(s.lat) / 1e6
		if s.write {
			writes[w] = append(writes[w], ms)
			allWrites = append(allWrites, ms)
		} else {
			reads[w] = append(reads[w], ms)
			allReads = append(allReads, ms)
		}
	}
	rates := make([]float64, n)
	var rp50, wp50 []float64
	for w := 0; w < n; w++ {
		rates[w] = counts[w] / (float64(win) / 1e9)
		if len(reads[w]) > 0 {
			rp50 = append(rp50, median(reads[w]))
		}
		if len(writes[w]) > 0 {
			wp50 = append(wp50, median(writes[w]))
		}
	}
	ws.opsPerSec = median(rates)
	ws.windowCV = coefVar(rates)
	ws.readP50ms = median(rp50)
	ws.readP99ms = percentile(allReads, 0.99)
	ws.writeP50ms = median(wp50)
	ws.writeP99ms = percentile(allWrites, 0.99)
	ws.readCount, ws.writeCount = len(allReads), len(allWrites)
	return ws
}

var metricNameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// validMetricName enforces the benchmark contract's name rule.
func validMetricName(name string) error {
	if !metricNameRE.MatchString(name) {
		return fmt.Errorf("bad metric name %q", name)
	}
	return nil
}

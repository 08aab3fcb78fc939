package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// median returns the middle value of xs (the mean of the two middle
// values for an even count). xs is sorted in place.
func median(xs []float64) float64 {
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// tailPercentiles are the candidate tail percentiles, highest first.
var tailPercentiles = []float64{99.9, 99, 98, 95, 90, 80, 75}

// tail returns the highest percentile in tailPercentiles that leaves at
// least ten samples beyond it, by the nearest-rank method, together with
// that percentile. ok is false when even p75 has fewer than ten samples
// beyond it. xs is sorted in place.
func tail(xs []float64) (v, pct float64, ok bool) {
	sort.Float64s(xs)
	n := len(xs)
	for _, p := range tailPercentiles {
		rank := int(math.Ceil(p*float64(n)/100 - 1e-9))
		if rank >= 1 && n-rank >= 10 {
			return xs[rank-1], p, true
		}
	}
	return 0, 0, false
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// totalAlloc is the cumulative heap bytes allocated by the process.
func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// gcCPU reads the cumulative GC CPU time and total CPU time the runtime
// has accounted, in seconds.
func gcCPU() (gc, total float64) {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Float64()
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// metric is one named, united measurement. Detail says how it was
// derived (sample count, percentile) for the human-readable table.
type metric struct {
	Name   string
	Unit   string
	Value  float64
	Detail string
}

// sink collects the metrics of one run in emission order.
type sink struct{ ms []metric }

func (s *sink) add(name, unit string, v float64, detail string, args ...any) {
	s.ms = append(s.ms, metric{Name: name, Unit: unit, Value: v, Detail: fmt.Sprintf(detail, args...)})
}

// medianMs adds a median-latency metric in ms over samples, unless
// there are none (an unmeasured metric is omitted, never written as 0).
func (s *sink) medianMs(name string, samples []float64) {
	if len(samples) == 0 {
		return
	}
	s.add(name, "ms", median(samples), "p50 of %d samples", len(samples))
}

// ratio adds num/den unless den is zero.
func (s *sink) ratio(name, unit string, num, den float64, detail string) {
	if den == 0 {
		return
	}
	s.add(name, unit, num/den, "%s (%g / %g)", detail, num, den)
}

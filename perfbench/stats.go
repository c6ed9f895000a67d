package main

import (
	"math"
	"sort"
	"sync"
	"time"
)

// tailLadder is the set of percentiles a tail may be reported at,
// highest first. A run reports the highest rung that still has at
// least minBeyond samples above it, so a tail is never one or two
// outliers.
var tailLadder = []float64{99.9, 99, 98, 95, 90, 80, 75, 50}

const minBeyond = 10

// rank returns the 1-based nearest-rank index of percentile p in n
// samples.
func rank(p float64, n int) int {
	// The epsilon keeps float error in p/100·n from rounding an exact
	// rank up (99.9% of 10000 is 9990, not 9991).
	r := int(math.Ceil(p/100*float64(n) - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// tailPercentile returns the highest ladder percentile that leaves at
// least minBeyond of n samples beyond it, or 0 when n is too small
// for any rung.
func tailPercentile(n int) float64 {
	for _, p := range tailLadder {
		if n-rank(p, n) >= minBeyond {
			return p
		}
	}
	return 0
}

// percentile returns the nearest-rank percentile p of sorted values.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	return sorted[rank(p, len(sorted))-1]
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var s float64
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return percentile(s, 50)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// recorder collects latencies in milliseconds; safe for concurrent use.
type recorder struct {
	mu sync.Mutex
	v  []float64
}

func (r *recorder) add(d time.Duration) { r.addMs(ms(d)) }

func (r *recorder) addMs(v float64) {
	r.mu.Lock()
	r.v = append(r.v, v)
	r.mu.Unlock()
}

func (r *recorder) N() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.v)
}

// sorted returns a sorted copy of the samples.
func (r *recorder) sorted() []float64 {
	r.mu.Lock()
	s := append([]float64(nil), r.v...)
	r.mu.Unlock()
	sort.Float64s(s)
	return s
}

// summary is one latency population: its median, its tail at the
// highest supported percentile, and the sample count.
type summary struct {
	N      int
	P50    float64
	Mean   float64
	TailP  float64 // the percentile Tail is reported at
	Tail   float64
	Sorted []float64
}

func summarize(r *recorder) summary {
	s := r.sorted()
	out := summary{N: len(s), P50: percentile(s, 50), Mean: mean(s), Sorted: s}
	if out.TailP = tailPercentile(len(s)); out.TailP > 0 {
		out.Tail = percentile(s, out.TailP)
	} else {
		out.Tail = math.NaN()
	}
	return out
}

// schedule is an open-loop timetable: request i is due at
// start + i/rate, whether or not earlier requests have completed.
// Latency is measured from the due time, so a stall also charges the
// requests queued behind it; lag is how late the generator itself
// sent the request.
type schedule struct {
	start time.Time
	rate  float64
}

func (s schedule) due(i int) time.Time {
	return s.start.Add(time.Duration(float64(i) / s.rate * float64(time.Second)))
}

// latency is the due-time latency of a request that completed at end.
func latency(due, end time.Time) time.Duration { return end.Sub(due) }

// lag is how late the generator sent a request due at due.
func lag(due, sent time.Time) time.Duration {
	if d := sent.Sub(due); d > 0 {
		return d
	}
	return 0
}

// sleepUntil sleeps until t; it returns at once when t has passed.
func sleepUntil(t time.Time) {
	if d := time.Until(t); d > 0 {
		time.Sleep(d)
	}
}

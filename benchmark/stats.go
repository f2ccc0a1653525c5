package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a percentile before the
// benchmark reports it (choosing-metrics guide: at least ten).
const minBeyond = 10

// percentile returns the p-th percentile (0 < p <= 100) of an ascending
// slice by the nearest-rank method, or 0 for an empty slice.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(len(sorted), p)-1]
}

// rank is the 1-based nearest rank of the p-th percentile among n samples.
func rank(n int, p float64) int {
	// The small allowance keeps p*n/100 from rounding a whole rank up to
	// the next one (99.9% of 10000 is rank 9990, not 9991).
	r := int(math.Ceil(p*float64(n)/100 - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// samplesBeyond counts the samples strictly above the p-th percentile's rank.
func samplesBeyond(n int, p float64) int { return n - rank(n, p) }

// supported reports whether n samples leave at least minBeyond beyond p.
func supported(n int, p float64) bool { return samplesBeyond(n, p) >= minBeyond }

func median(vals []float64) float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// sample is one timed unit of work: how long it took in nanoseconds and how
// many operations it covers (1 for a request, the batch size for a batch of
// decisions).
type sample struct {
	ops int32
	dur float64
}

// timing is what a measured run hands to summarize, in wall time.
type timing struct {
	samples []sample
	elapsed float64 // seconds the run lasted
	cpuNs   float64 // process CPU time over the run
}

func (t *timing) ops() float64 {
	var n float64
	for _, s := range t.samples {
		n += float64(s.ops)
	}
	return n
}

// summary condenses a run's samples into the end-to-end numbers. They are
// taken over the whole run and not over slices of it: on the workloads with
// a large rule table the garbage collector marks for half of every second,
// and a slice of about that length measures where it fell in the cycle.
type summary struct {
	samples   int
	beyondP99 int     // samples above the p99
	p50us     float64 // per-operation latency
	p99us     float64 // the worst sample when too few lie beyond a p99
	p999us    float64 // 0 when too few samples lie beyond it
	opsPerSec float64 // correct operations over the run's length
}

func summarize(t timing) summary {
	n := len(t.samples)
	out := summary{samples: n, beyondP99: samplesBeyond(n, 99)}
	if n == 0 {
		return out
	}
	all := make([]float64, n)
	for i, s := range t.samples {
		all[i] = s.dur / float64(s.ops) / 1e3
	}
	sort.Float64s(all)
	out.p50us = percentile(all, 50)
	out.p99us = percentile(all, 99)
	if supported(n, 99.9) {
		out.p999us = percentile(all, 99.9)
	}
	if t.elapsed > 0 {
		out.opsPerSec = t.ops() / t.elapsed
	}
	return out
}

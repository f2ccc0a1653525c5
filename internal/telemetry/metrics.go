// Package telemetry provides the observability substrate of the mesh:
// counters, gauges, exact-percentile latency samples, sampled
// time series, structured access logs (joinable to distributed traces from
// internal/trace via AccessEntry.TraceID), and the full-mesh prober the
// paper uses to "prove absence of failure" (§6.4).
package telemetry

import (
	"fmt"

	"canalmesh/internal/sim"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing count. It is lock-free (a float64
// bit-cast into an atomic.Uint64 updated by CAS), so per-request hot paths —
// gateway dispatch, admission shedding — can bump it without contending on a
// mutex.
type Counter struct {
	bits atomic.Uint64
}

// Add increments the counter by d (d < 0 panics).
func (c *Counter) Add(d float64) {
	if d < 0 {
		panic("telemetry: counter decrement")
	}
	for {
		old := c.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + d)
		if c.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Inc adds 1.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count.
func (c *Counter) Value() float64 {
	return math.Float64frombits(c.bits.Load())
}

// Gauge is a value that can go up and down. Like Counter it is a lock-free
// bit-cast atomic float64.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) {
	g.bits.Store(math.Float64bits(v))
}

// Add adjusts the gauge by d.
func (g *Gauge) Add(d float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + d)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the gauge value.
func (g *Gauge) Value() float64 {
	return math.Float64frombits(g.bits.Load())
}

// Sample collects observations and answers exact order statistics. It is the
// right tool for experiment-scale latency percentiles (P50/P90/P99).
type Sample struct {
	mu     sync.Mutex
	vals   []float64
	sorted bool
}

// Observe records one value.
func (s *Sample) Observe(v float64) {
	//canal:allow hotpath sample reservoir must serialize on the concurrent live path; uncontended under the sim
	s.mu.Lock()
	//canal:allow hotpath amortized reservoir growth; bounded by the run length
	s.vals = append(s.vals, v)
	s.sorted = false
	s.mu.Unlock()
}

// ObserveDuration records a duration in seconds.
func (s *Sample) ObserveDuration(d time.Duration) { s.Observe(d.Seconds()) }

// Count returns the number of observations.
func (s *Sample) Count() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.vals)
}

// Mean returns the arithmetic mean, or 0 with no observations.
func (s *Sample) Mean() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.vals) == 0 {
		return 0
	}
	var sum float64
	for _, v := range s.vals {
		sum += v
	}
	return sum / float64(len(s.vals))
}

// Percentile returns the p-th percentile (p in [0,100]) using the
// nearest-rank method, or 0 with no observations.
func (s *Sample) Percentile(p float64) float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.vals) == 0 {
		return 0
	}
	if !s.sorted {
		sort.Float64s(s.vals)
		s.sorted = true
	}
	if p <= 0 {
		return s.vals[0]
	}
	if p >= 100 {
		return s.vals[len(s.vals)-1]
	}
	rank := int(math.Ceil(p / 100 * float64(len(s.vals))))
	return s.vals[rank-1]
}

// PercentileDuration returns the p-th percentile as a duration.
func (s *Sample) PercentileDuration(p float64) time.Duration {
	return sim.Seconds(s.Percentile(p))
}

// Max returns the maximum observation, or 0 with no observations.
func (s *Sample) Max() float64 { return s.Percentile(100) }

// Reset discards all observations.
func (s *Sample) Reset() {
	s.mu.Lock()
	s.vals = s.vals[:0]
	s.sorted = false
	s.mu.Unlock()
}

// Point is one time-series sample.
type Point struct {
	T time.Duration
	V float64
}

// Series is an append-only sampled time series (backend water levels,
// per-service RPS, ...). It is what the anomaly-detection and root-cause
// analysis code consumes.
type Series struct {
	mu   sync.Mutex
	name string
	pts  []Point
}

// NewSeries returns a named empty series.
func NewSeries(name string) *Series { return &Series{name: name} }

// Name returns the series name.
func (s *Series) Name() string { return s.name }

// Append adds a sample. Timestamps must be non-decreasing.
func (s *Series) Append(t time.Duration, v float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if n := len(s.pts); n > 0 && s.pts[n-1].T > t {
		panic(fmt.Sprintf("telemetry: series %s: time going backwards (%v after %v)", s.name, t, s.pts[n-1].T))
	}
	s.pts = append(s.pts, Point{T: t, V: v})
}

// Points returns a copy of all samples.
func (s *Series) Points() []Point {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Point, len(s.pts))
	copy(out, s.pts)
	return out
}

// Len returns the sample count.
func (s *Series) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.pts)
}

// Last returns the most recent sample, or a zero Point.
func (s *Series) Last() Point {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.pts) == 0 {
		return Point{}
	}
	return s.pts[len(s.pts)-1]
}

// Window returns the samples with T in [from, to); an empty or inverted
// range has none.
func (s *Series) Window(from, to time.Duration) []Point {
	if to <= from {
		return []Point{}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	lo := sort.Search(len(s.pts), func(i int) bool { return s.pts[i].T >= from })
	hi := sort.Search(len(s.pts), func(i int) bool { return s.pts[i].T >= to })
	out := make([]Point, hi-lo)
	copy(out, s.pts[lo:hi])
	return out
}

// Values returns just the values of the samples in [from, to).
func (s *Series) Values(from, to time.Duration) []float64 {
	w := s.Window(from, to)
	out := make([]float64, len(w))
	for i, p := range w {
		out[i] = p.V
	}
	return out
}

// JainIndex returns Jain's fairness index (sum x)^2 / (n * sum x^2) over the
// values: 1.0 when all shares are equal, 1/n when one party captures
// everything. The admission layer reports it over per-tenant goodput. Empty
// or all-zero input yields 1 (nothing allocated is vacuously fair).
func JainIndex(vals []float64) float64 {
	if len(vals) == 0 {
		return 1
	}
	var sum, sumSq float64
	for _, v := range vals {
		sum += v
		sumSq += v * v
	}
	if sumSq == 0 {
		return 1
	}
	return sum * sum / (float64(len(vals)) * sumSq)
}

// Correlation returns the Pearson correlation of two equal-length value
// vectors, or 0 when undefined. The root-cause analysis (§4.3) uses it to
// align service traffic trends with backend water levels.
func Correlation(a, b []float64) float64 {
	n := len(a)
	if n == 0 || n != len(b) {
		return 0
	}
	var ma, mb float64
	for i := 0; i < n; i++ {
		ma += a[i]
		mb += b[i]
	}
	ma /= float64(n)
	mb /= float64(n)
	var cov, va, vb float64
	for i := 0; i < n; i++ {
		da, db := a[i]-ma, b[i]-mb
		cov += da * db
		va += da * da
		vb += db * db
	}
	if va == 0 || vb == 0 {
		return 0
	}
	return cov / math.Sqrt(va*vb)
}

package admission

import (
	"sync"
	"time"
)

// LimiterConfig tunes an AIMD concurrency limiter. Zero fields take package
// defaults.
type LimiterConfig struct {
	// InitialLimit is the starting concurrency limit. Default 16.
	InitialLimit int
	// MinLimit / MaxLimit clamp the adaptive limit. Defaults 1 / 1024.
	MinLimit int
	MaxLimit int
	// Tolerance: latency above Tolerance*baseline triggers multiplicative
	// decrease. Default 2.0.
	Tolerance float64
}

// The AIMD control loop's tuning, the same for every limiter.
const (
	// backoff is the multiplicative-decrease factor.
	backoff = 0.9
	// baselineWindow is how often the window-minimum latency is folded
	// into the EWMA baseline.
	baselineWindow = time.Second
	// baselineAlpha is the EWMA weight of each window fold.
	baselineAlpha = 0.2
	// decreaseCooldown is the minimum spacing between multiplicative
	// decreases, so one burst of queued samples does not collapse the
	// limit.
	decreaseCooldown = 50 * time.Millisecond
)

func (c LimiterConfig) withDefaults() LimiterConfig {
	if c.InitialLimit <= 0 {
		c.InitialLimit = 16
	}
	if c.MinLimit <= 0 {
		c.MinLimit = 1
	}
	if c.MaxLimit <= 0 {
		c.MaxLimit = 1024
	}
	if c.Tolerance <= 1 {
		c.Tolerance = 2.0
	}
	return c
}

// Limiter is an AIMD adaptive concurrency limiter in the style of gradient
// limiters (Netflix concurrency-limits, TCP Vegas): it learns a latency
// baseline as an EWMA of per-window minimum latencies, additively grows the
// limit while latency stays near baseline and the limit is actually being
// used, and multiplicatively backs off when latency exceeds
// Tolerance*baseline — shedding excess load before queues build.
//
// The baseline tracks downward instantly (a faster sample is always a better
// floor estimate) and upward gradually via the window fold, so the limiter
// converges after a genuine service-time shift instead of throttling forever
// against a stale floor.
//
// All methods take explicit "now" instants (virtual or wall-clock offsets)
// and are safe for concurrent use.
type Limiter struct {
	mu  sync.Mutex
	cfg LimiterConfig

	limit    float64
	inflight int

	baseline    float64 // EWMA latency floor, seconds (0 = unlearned)
	windowMin   float64 // minimum latency seen in the current window
	windowSeen  bool
	windowStart time.Duration
	lastDecr    time.Duration
}

// NewLimiter returns a limiter with the given config.
func NewLimiter(cfg LimiterConfig) *Limiter {
	cfg = cfg.withDefaults()
	return &Limiter{cfg: cfg, limit: float64(cfg.InitialLimit)}
}

// Limit returns the current concurrency limit.
func (l *Limiter) Limit() float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.limit
}

// Inflight returns the current in-flight count.
func (l *Limiter) Inflight() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.inflight
}

// Baseline returns the learned latency floor in seconds (0 until learned).
func (l *Limiter) Baseline() float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.baseline
}

// Acquire reserves an in-flight slot at now; false means the caller must
// shed the request. Every true return must be paired with one Release.
func (l *Limiter) Acquire(now time.Duration) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if float64(l.inflight) >= l.limit {
		return false
	}
	l.inflight++
	return true
}

// Release returns a slot and, when ok, feeds the observed latency into the
// AIMD control loop. Failed requests release the slot without polluting the
// latency signal.
func (l *Limiter) Release(now, latency time.Duration, ok bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.inflight > 0 {
		l.inflight--
	}
	if !ok {
		return
	}
	sample := latency.Seconds()
	if sample <= 0 {
		return
	}

	// Baseline: instant downward tracking, windowed-minimum EWMA upward.
	if l.baseline == 0 || sample < l.baseline {
		l.baseline = sample
	}
	if !l.windowSeen || sample < l.windowMin {
		l.windowMin = sample
		l.windowSeen = true
	}
	if now-l.windowStart >= baselineWindow {
		if l.windowSeen {
			a := baselineAlpha
			l.baseline = (1-a)*l.baseline + a*l.windowMin
		}
		l.windowStart = now
		l.windowSeen = false
	}

	switch {
	case sample > l.cfg.Tolerance*l.baseline:
		if now-l.lastDecr >= decreaseCooldown || l.lastDecr == 0 {
			l.limit *= backoff
			if l.limit < float64(l.cfg.MinLimit) {
				l.limit = float64(l.cfg.MinLimit)
			}
			l.lastDecr = now
		}
	case float64(l.inflight+1) >= l.limit:
		// The limit was saturated and latency is healthy: probe upward
		// by ~1 per limit's worth of completions (additive increase).
		l.limit += 1 / l.limit
		if l.limit > float64(l.cfg.MaxLimit) {
			l.limit = float64(l.cfg.MaxLimit)
		}
	}
}

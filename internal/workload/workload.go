// Package workload generates the traffic that drives every experiment:
// open-loop arrivals following arbitrary rate curves (constant, diurnal
// sinusoid, flash-crowd spikes, ramps), closed-loop drivers in the style of
// wrk (N connections, send-receive-repeat), and the abnormal patterns the
// intervention experiments need (session floods whose #TCP sessions surge
// without matching RPS, and query-of-death requests).
package workload

import (
	"math"
	"time"

	"canalmesh/internal/sim"
)

// RateFunc returns the offered request rate (RPS) at virtual time t.
type RateFunc func(t time.Duration) float64

// Constant returns a flat rate.
func Constant(rps float64) RateFunc {
	return func(time.Duration) float64 { return rps }
}

// Sinusoid returns a diurnal-style rate: base + amp*sin(2π(t+phase)/period),
// clamped at zero. Services sharing a phase are "in-phase" — the situation
// traffic-pattern monitoring scatters (§6.3).
func Sinusoid(base, amp float64, period, phase time.Duration) RateFunc {
	return func(t time.Duration) float64 {
		v := base + amp*math.Sin(2*math.Pi*float64(t+phase)/float64(period))
		if v < 0 {
			return 0
		}
		return v
	}
}

// Spike returns base everywhere except [start, start+dur), where it returns
// peak — a hotspot-event flash crowd.
func Spike(base, peak float64, start, dur time.Duration) RateFunc {
	return func(t time.Duration) float64 {
		if t >= start && t < start+dur {
			return peak
		}
		return base
	}
}

// FlashCrowd returns a trapezoid flash-crowd rate: base until start, a ramp
// up to peak over rampUp (the crowd arriving), peak held for hold, then a
// ramp back down to base over rampUp again. It is the canonical aggressor
// curve for admission-control experiments: unlike Spike's square edge, the
// ramp exercises the limiter's adaptation rather than only its cap.
func FlashCrowd(base, peak float64, start, rampUp, hold time.Duration) RateFunc {
	return func(t time.Duration) float64 {
		switch {
		case t < start:
			return base
		case t < start+rampUp:
			frac := float64(t-start) / float64(rampUp)
			return base + (peak-base)*frac
		case t < start+rampUp+hold:
			return peak
		case t < start+2*rampUp+hold:
			frac := float64(t-start-rampUp-hold) / float64(rampUp)
			return peak + (base-peak)*frac
		default:
			return base
		}
	}
}

// Ramp linearly interpolates from -> to over [start, start+dur).
func Ramp(from, to float64, start, dur time.Duration) RateFunc {
	return func(t time.Duration) float64 {
		switch {
		case t < start:
			return from
		case t >= start+dur:
			return to
		default:
			frac := float64(t-start) / float64(dur)
			return from + (to-from)*frac
		}
	}
}

// Sum composes rate functions additively.
func Sum(fns ...RateFunc) RateFunc {
	return func(t time.Duration) float64 {
		var v float64
		for _, fn := range fns {
			v += fn(t)
		}
		return v
	}
}

// Scale multiplies a rate function by k.
func Scale(fn RateFunc, k float64) RateFunc {
	return func(t time.Duration) float64 { return fn(t) * k }
}

// OpenLoop schedules send calls on s following rate(t) from now until end,
// evaluating the rate every tick. Arrival counts use a fractional
// accumulator, so the emitted request count over any window matches the
// integral of the rate exactly (deterministic, reproducible load).
func OpenLoop(s *sim.Sim, rate RateFunc, tick, end time.Duration, send func()) {
	if tick <= 0 {
		panic("workload: OpenLoop needs a positive tick")
	}
	var acc float64
	s.Every(tick, func() bool {
		t := s.Now()
		if t > end {
			return false
		}
		acc += rate(t) * tick.Seconds()
		n := int(acc)
		acc -= float64(n)
		for i := 0; i < n; i++ {
			send()
		}
		return true
	})
}

// Target issues one request; the implementation must invoke done exactly
// once, at the virtual time the request completes.
type Target func(done func(ok bool))

// ClosedLoopStats reports what a closed-loop run observed.
type ClosedLoopStats struct {
	Issued    int
	Succeeded int
	Failed    int
}

// ClosedLoop models a wrk-style driver: conns concurrent connections, each
// issuing a request, waiting for completion, thinking, then repeating, until
// end. It returns a stats handle that is final once the simulation drains.
func ClosedLoop(s *sim.Sim, conns int, think, end time.Duration, issue Target) *ClosedLoopStats {
	stats := &ClosedLoopStats{}
	var loop func()
	loop = func() {
		if s.Now() >= end {
			return
		}
		stats.Issued++
		issue(func(ok bool) {
			if ok {
				stats.Succeeded++
			} else {
				stats.Failed++
			}
			if think > 0 {
				s.After(think, loop)
			} else {
				// Yield one event so completions interleave fairly.
				s.After(0, loop)
			}
		})
	}
	for i := 0; i < conns; i++ {
		s.After(0, loop)
	}
	return stats
}

// QueryOfDeath wraps a base cost multiplier for poisoned requests: queries
// whose processing cost is mult times normal, the "query of death" that can
// crash a service's backends one after another (§4.2, [18]).
type QueryOfDeath struct {
	Mult    float64
	Every   int // every N-th request is poisoned; 0 disables
	counter int
}

// CostMultiplier returns the cost multiplier for the next request.
func (q *QueryOfDeath) CostMultiplier() float64 {
	if q.Every <= 0 {
		return 1
	}
	q.counter++
	if q.counter%q.Every == 0 {
		return q.Mult
	}
	return 1
}

// Package workload generates the traffic that drives every experiment:
// open-loop arrivals following rate curves (constant, diurnal sinusoid,
// spikes and flash crowds).
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

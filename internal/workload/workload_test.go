package workload

import (
	"math"
	"testing"
	"time"

	"canalmesh/internal/sim"
)

func TestConstantOpenLoopCount(t *testing.T) {
	s := sim.New(1)
	sent := 0
	OpenLoop(s, Constant(100), 10*time.Millisecond, 10*time.Second, func() { sent++ })
	s.Run()
	// 100 RPS for 10s = 1000 requests, exact by construction.
	if sent != 1000 {
		t.Errorf("sent = %d, want 1000", sent)
	}
}

func TestOpenLoopFractionalAccumulation(t *testing.T) {
	s := sim.New(1)
	sent := 0
	// 0.5 RPS with 1s ticks: a request every other tick.
	OpenLoop(s, Constant(0.5), time.Second, 10*time.Second, func() { sent++ })
	s.Run()
	if sent != 5 {
		t.Errorf("sent = %d, want 5", sent)
	}
}

func TestOpenLoopZeroTickPanics(t *testing.T) {
	s := sim.New(1)
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	OpenLoop(s, Constant(1), 0, time.Second, func() {})
}

func TestSinusoidPhases(t *testing.T) {
	day := 24 * time.Hour
	a := Sinusoid(100, 50, day, 0)
	b := Sinusoid(100, 50, day, day/2) // anti-phase
	// At the quarter period, a peaks and b troughs.
	quarter := day / 4
	if a(quarter) <= 100 {
		t.Errorf("a(quarter) = %v, want > base", a(quarter))
	}
	if b(quarter) >= 100 {
		t.Errorf("b(quarter) = %v, want < base", b(quarter))
	}
	// In-phase copies coincide.
	c := Sinusoid(100, 50, day, 0)
	for _, tt := range []time.Duration{0, time.Hour, 7 * time.Hour} {
		if math.Abs(a(tt)-c(tt)) > 1e-9 {
			t.Error("identical phase should coincide")
		}
	}
}

func TestSinusoidClampsAtZero(t *testing.T) {
	f := Sinusoid(10, 100, time.Hour, 0)
	min := math.Inf(1)
	for tt := time.Duration(0); tt < time.Hour; tt += time.Minute {
		if v := f(tt); v < min {
			min = v
		}
	}
	if min < 0 {
		t.Errorf("rate went negative: %v", min)
	}
	if min != 0 {
		t.Errorf("deep trough should clamp to 0, min = %v", min)
	}
}

func TestSpike(t *testing.T) {
	f := Spike(10, 1000, time.Minute, 30*time.Second)
	if f(0) != 10 || f(2*time.Minute) != 10 {
		t.Error("outside spike should be base")
	}
	if f(time.Minute) != 1000 || f(89*time.Second) != 1000 {
		t.Error("inside spike should be peak")
	}
	if f(90*time.Second) != 10 {
		t.Error("spike end is exclusive")
	}
}

func TestRamp(t *testing.T) {
	f := Ramp(0, 100, time.Minute, time.Minute)
	if f(0) != 0 || f(3*time.Minute) != 100 {
		t.Error("ramp endpoints")
	}
	if got := f(90 * time.Second); math.Abs(got-50) > 1e-9 {
		t.Errorf("midpoint = %v, want 50", got)
	}
}

func TestSumAndScale(t *testing.T) {
	f := Sum(Constant(10), Constant(20))
	if f(0) != 30 {
		t.Errorf("Sum = %v", f(0))
	}
	g := Scale(Constant(10), 2.5)
	if g(0) != 25 {
		t.Errorf("Scale = %v", g(0))
	}
}

func TestClosedLoopSerializesPerConnection(t *testing.T) {
	s := sim.New(1)
	inFlight, maxInFlight := 0, 0
	stats := ClosedLoop(s, 4, 0, time.Second, func(done func(bool)) {
		inFlight++
		if inFlight > maxInFlight {
			maxInFlight = inFlight
		}
		s.After(10*time.Millisecond, func() {
			inFlight--
			done(true)
		})
	})
	s.Run()
	if maxInFlight != 4 {
		t.Errorf("max in flight = %d, want 4 (one per connection)", maxInFlight)
	}
	// Each connection completes ~100 requests in 1s at 10ms each.
	if stats.Issued < 380 || stats.Issued > 420 {
		t.Errorf("issued = %d, want ~400", stats.Issued)
	}
	if stats.Succeeded != stats.Issued {
		t.Errorf("succeeded = %d of %d", stats.Succeeded, stats.Issued)
	}
}

func TestClosedLoopThinkTime(t *testing.T) {
	s := sim.New(1)
	stats := ClosedLoop(s, 1, time.Second, 10*time.Second, func(done func(bool)) {
		done(true) // instant completion
	})
	s.Run()
	// ~1 request per second for 10s.
	if stats.Issued < 9 || stats.Issued > 11 {
		t.Errorf("issued = %d, want ~10", stats.Issued)
	}
}

func TestClosedLoopFailuresCounted(t *testing.T) {
	s := sim.New(1)
	n := 0
	stats := ClosedLoop(s, 1, 0, time.Second, func(done func(bool)) {
		n++
		s.After(100*time.Millisecond, func() { done(n%2 == 0) })
	})
	s.Run()
	if stats.Failed == 0 || stats.Succeeded == 0 {
		t.Errorf("expected a mix: %+v", stats)
	}
	if stats.Failed+stats.Succeeded != stats.Issued {
		t.Errorf("accounting mismatch: %+v", stats)
	}
}

func TestQueryOfDeath(t *testing.T) {
	q := &QueryOfDeath{Mult: 100, Every: 10}
	poisoned := 0
	for i := 0; i < 100; i++ {
		if q.CostMultiplier() == 100 {
			poisoned++
		}
	}
	if poisoned != 10 {
		t.Errorf("poisoned = %d, want 10", poisoned)
	}
	off := &QueryOfDeath{Mult: 100, Every: 0}
	if off.CostMultiplier() != 1 {
		t.Error("disabled QoD should return 1")
	}
}

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

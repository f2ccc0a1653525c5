package units

import (
	"math"
	"testing"
	"time"
)

// TestUnitConstructors pins the constructors to their definitional
// expressions: the repo-wide sweep that adopted them replaced inline
// conversions, and any drift here would move rendered benchmark digits.
func TestUnitConstructors(t *testing.T) {
	if got := Nanos(1500); got != 1500 { //canal:allow unitsafe pins Nanos to its raw nanosecond count
		t.Errorf("Nanos(1500) = %v, want 1500ns", got)
	}
	if got := Micros(250); got != 250*time.Microsecond {
		t.Errorf("Micros(250) = %v", got)
	}
	if got := Millis(int64(42)); got != 42*time.Millisecond {
		t.Errorf("Millis(42) = %v", got)
	}
	for _, f := range []float64{0, 0.5, 1.25e-3, 17.000001, 3600.9} {
		if got, want := Seconds(f), time.Duration(f*float64(time.Second)); got != want { //canal:allow unitsafe pins Seconds to the inline expression it replaced
			t.Errorf("Seconds(%v) = %v, want %v", f, got, want)
		}
	}
	d := 1372 * time.Microsecond
	for _, f := range []float64{0.1, 1.0 / 3.0, 2.718281828, 1e4} {
		if got, want := Scale(d, f), time.Duration(float64(d)*f); got != want { //canal:allow unitsafe pins Scale to the inline expression it replaced
			t.Errorf("Scale(%v, %v) = %v, want %v", d, f, got, want)
		}
		if got, want := Div(d, f), time.Duration(float64(d)/f); got != want { //canal:allow unitsafe pins Div to the inline expression it replaced
			t.Errorf("Div(%v, %v) = %v, want %v", d, f, got, want)
		}
	}
	// Div is division, not multiplication by the reciprocal: the two round
	// differently and only the former is byte-compatible with the inline
	// expressions the sweep replaced.
	f := math.Sqrt(3)
	if Div(d, f) != time.Duration(float64(d)/f) { //canal:allow unitsafe pins Div to true division, not reciprocal scaling
		t.Error("Div must divide, not scale by reciprocal")
	}
}

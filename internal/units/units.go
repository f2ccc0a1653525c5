// Package units is the one blessed home for unit-carrying duration
// conversions, shared by the simulator and the live gateway. Everywhere
// else, canalvet's unitsafe analyzer rejects arithmetic that mixes
// time.Duration (or sim.Time) with bare numeric literals and unit-less
// time.Duration(...) conversions: a number with no unit attached is exactly
// how per-hop cost accounting drifts (a float of seconds silently read as
// nanoseconds, a count added to a latency). Code that needs to turn a
// number into a duration names the unit with one of the constructors
// below, or multiplies by an explicit time unit constant. The package
// imports nothing but time, so the live gateway links none of the
// simulator by using it.
package units

import "time"

// Integer is the constraint for the integer-count constructors.
type Integer interface {
	~int | ~int8 | ~int16 | ~int32 | ~int64 |
		~uint | ~uint8 | ~uint16 | ~uint32 | ~uint64
}

// Nanos names an integer count of nanoseconds as a duration. It replaces
// bare time.Duration(n) conversions, whose implicit nanosecond unit is
// invisible at the call site.
func Nanos[N Integer](n N) time.Duration {
	return time.Duration(n) //canal:allow unitsafe Nanos is a named unit constructor
}

// Micros names an integer count of microseconds as a duration.
func Micros[N Integer](n N) time.Duration {
	return time.Duration(n) * time.Microsecond
}

// Millis names an integer count of milliseconds as a duration.
func Millis[N Integer](n N) time.Duration {
	return time.Duration(n) * time.Millisecond
}

// Seconds converts a float count of seconds into a duration, truncating
// exactly like the time.Duration(f * float64(time.Second)) expression it
// replaces, so adopting it cannot move a single rendered digit.
func Seconds(f float64) time.Duration {
	return time.Duration(f * float64(time.Second)) //canal:allow unitsafe Seconds is a named unit constructor
}

// Scale multiplies a duration by a dimensionless factor, truncating exactly
// like the time.Duration(float64(d) * f) expression it replaces.
func Scale(d time.Duration, f float64) time.Duration {
	return time.Duration(float64(d) * f) //canal:allow unitsafe Scale is the blessed dimensionless-factor scaling helper
}

// Div divides a duration by a dimensionless factor, truncating exactly like
// the time.Duration(float64(d) / f) expression it replaces. It is not
// Scale(d, 1/f): the two differ in the last float bit, which matters to a
// simulator whose outputs are compared byte-for-byte across runs.
func Div(d time.Duration, f float64) time.Duration {
	return time.Duration(float64(d) / f) //canal:allow unitsafe Div is the blessed dimensionless-factor scaling helper
}

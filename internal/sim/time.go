package sim

import "time"

// Time is a virtual-time instant: a duration since the start of the
// simulation, as returned by Sim.Now. It is declared as its own type so
// that code opting in can keep instants and durations apart — adding two
// instants is as meaningless as multiplying two durations — and so the
// unitsafe analyzer can police conversions between the two: direct
// sim.Time(d)/time.Duration(t) conversions are flagged; FromDuration and
// Time.Duration are the named, greppable crossing points. The unit
// constructors for plain durations live in internal/units.
type Time time.Duration

// FromDuration converts a duration-since-start into a virtual-time instant.
func FromDuration(d time.Duration) Time { return Time(d) } //canal:allow unitsafe FromDuration is the blessed Duration->Time crossing point

// Duration converts the instant back into a duration since simulation start.
func (t Time) Duration() time.Duration { return time.Duration(t) } //canal:allow unitsafe Time.Duration is the blessed Time->Duration crossing point

// ToDuration is the free-function form of Time.Duration, for call sites
// that hold the instant in an expression rather than a variable.
func ToDuration(t Time) time.Duration { return time.Duration(t) } //canal:allow unitsafe ToDuration is the blessed Time->Duration crossing point

//go:build !race

package configpush

// raceEnabled reports whether this test binary was built with the race
// detector, whose instrumentation changes allocation counts.
const raceEnabled = false

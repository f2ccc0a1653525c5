//go:build race

package policy

// raceEnabled reports whether this test binary was built with the race
// detector, whose instrumentation inflates heap sizes.
const raceEnabled = true

//go:build race

package canal

// raceEnabled reports whether this test binary was built with the race
// detector, whose instrumentation inflates allocation counts and would
// make allocs/op assertions meaningless.
const raceEnabled = true

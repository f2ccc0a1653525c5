//go:build !race

package canal

// raceEnabled reports whether this test binary was built with the race
// detector (see race_enabled_test.go).
const raceEnabled = false

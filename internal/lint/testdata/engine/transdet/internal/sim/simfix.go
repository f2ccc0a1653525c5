// Package sim is in simdeterminism scope: transdeterminism polices its
// calls into out-of-scope helper packages.
package sim

import "canalmesh/internal/clockutil"

// bootStamp reaches the wall clock from a package-level initialiser, which
// runs in the package's init.
var bootStamp = clockutil.Stamp() // want "internal/clockutil.Stamp reaches nondeterminism: time.Now reads or waits on the wall clock"

// Step reaches the wall clock through two helper frames.
func Step() int64 {
	return clockutil.Stamp() // want "internal/clockutil.Stamp reaches nondeterminism: time.Now reads or waits on the wall clock"
}

// Draw reaches the global math/rand source one frame down.
func Draw() int {
	return clockutil.Roll() // want "internal/clockutil.Roll reaches nondeterminism: rand.Intn draws from the global math/rand source"
}

// StepAllowed carries a reviewed justification: suppressed, not reported.
func StepAllowed() int64 {
	//canal:allow transdeterminism fixture: wall-clock helper permitted to prove directive suppression
	return clockutil.Stamp()
}

// StepClean calls only the deterministic helper: nothing to report.
func StepClean() int64 { return clockutil.Pure() }

// StepBoundary reaches the clock only by re-entering sim scope through the
// helper: simdeterminism's jurisdiction, so transdeterminism stays quiet.
func StepBoundary() int64 { return clockutil.Relay() }

// StaleStep carries a directive that suppresses nothing.
func StaleStep() int64 {
	// want+1 "canal:allow transdeterminism suppresses nothing"
	//canal:allow transdeterminism fixture: deliberately stale justification
	return clockutil.Pure()
}

// Package broken fails type-checking on purpose: the engine must degrade
// to reporting the failure and keep whatever partial information it
// gathered, never panic or abort the run.
package broken

func Bad() int {
	return undefinedIdentifier + 1
}

func Good() int { return 4 }

// Untyped ranges over and calls names the checker cannot resolve. The
// analyzers have no type to read there and stay silent; the typecheck
// diagnostics are what fails the gate.
func Untyped() []string {
	var out []string
	for k := range undefinedMap {
		out = append(out, k)
	}
	undefinedSave()
	return out
}

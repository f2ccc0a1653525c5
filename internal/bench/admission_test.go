package bench

import (
	"context"
	"testing"
)

// TestAdmissionFlashCrowdAcceptance pins the headline shapes of the
// admission experiment: with admission on, the victims' flash-crowd p99 stays
// within 2x of their unloaded baseline and goodput survives; with admission
// off, the shared queue blows victim latency up by orders of magnitude and
// goodput collapses.
func TestAdmissionFlashCrowdAcceptance(t *testing.T) {
	off := runAdmissionFlashCrowd(false)
	on := runAdmissionFlashCrowd(true)

	if on.victimBaseP99 <= 0 || off.victimBaseP99 <= 0 {
		t.Fatal("no baseline victim latency recorded")
	}
	onBlowup := float64(on.victimFlashP99) / float64(on.victimBaseP99)
	if onBlowup > 2 {
		t.Fatalf("admission on: victim flash p99 %v is %.2fx baseline %v, want <=2x",
			on.victimFlashP99, onBlowup, on.victimBaseP99)
	}
	offBlowup := float64(off.victimFlashP99) / float64(off.victimBaseP99)
	if offBlowup < 10 {
		t.Fatalf("admission off: victim flash p99 %v only %.1fx baseline — the scenario is not saturating",
			off.victimFlashP99, offBlowup)
	}

	// Goodput: victims offer victimRate*numVictims during the crowd. With
	// admission on they keep nearly all of it; off, the multi-second queue
	// means essentially nothing lands within the deadline.
	offered := victimRate * numVictims
	if on.victimGoodput < 0.9*offered {
		t.Fatalf("admission on: victim goodput %.0f rps of %.0f offered", on.victimGoodput, offered)
	}
	if off.victimGoodput > 0.1*offered {
		t.Fatalf("admission off: victim goodput %.0f rps — expected collapse under the flash crowd", off.victimGoodput)
	}
	// Graceful degradation, not collapse: total goodput with admission on
	// must exceed the victims' share alone (the aggressor still gets its
	// admitted slice).
	if on.totalGoodput <= on.victimGoodput {
		t.Fatalf("admission on: total goodput %.0f <= victim goodput %.0f; aggressor fully starved",
			on.totalGoodput, on.victimGoodput)
	}
	if on.shed == 0 {
		t.Fatal("admission on shed nothing under a 5x flash crowd")
	}
	if off.shed != 0 {
		t.Fatalf("admission off shed %v requests; no admission layer should exist", off.shed)
	}
	if on.fairness <= 0 || on.fairness > 1 {
		t.Fatalf("fairness index = %v, want (0, 1]", on.fairness)
	}
}

// TestAdmissionFlashCrowdDeterministic: the experiment must be bit-identical
// across runs under the fixed seed — virtual time only, no wall-clock or
// unseeded randomness.
func TestAdmissionFlashCrowdDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("repeat run is slow")
	}
	for _, enable := range []bool{false, true} {
		a := runAdmissionFlashCrowd(enable)
		b := runAdmissionFlashCrowd(enable)
		if a != b {
			t.Fatalf("enable=%v: runs differ under fixed seed:\n  a=%+v\n  b=%+v", enable, a, b)
		}
	}
}

// TestAdmissionTableRuns exercises the table constructor end to end.
func TestAdmissionTableRuns(t *testing.T) {
	tab := AdmissionFlashCrowd(context.Background())
	if len(tab.Rows) != 2 {
		t.Fatalf("rows = %d, want 2 (off, on)", len(tab.Rows))
	}
	if len(tab.Notes) == 0 {
		t.Fatal("table should carry acceptance notes")
	}
}

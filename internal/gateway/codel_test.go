package gateway

import (
	"testing"
	"time"
)

// TestCoDelDropRecoverCycle walks CoDel through its full state machine:
// tolerate a burst shorter than the interval, enter dropping once sojourn
// stands above target for a full interval, shed with increasing frequency
// while congestion persists, and recover the moment sojourn drops below
// target.
func TestCoDelDropRecoverCycle(t *testing.T) {
	c := newCoDel(2*time.Millisecond, 20*time.Millisecond)

	// Phase 1: a short burst above target (shorter than one interval)
	// passes untouched.
	now := time.Duration(0)
	for i := 0; i < 10; i++ {
		now += time.Millisecond
		if !c.Admit(now, 5*time.Millisecond) {
			t.Fatalf("dropped during sub-interval burst at %v", now)
		}
	}
	if c.Dropping() {
		t.Fatal("entered dropping state before a full interval above target")
	}

	// Phase 2: sojourn stays above target past the interval: dropping
	// starts and sheds recur.
	var drops int
	for i := 0; i < 200; i++ {
		now += time.Millisecond
		if !c.Admit(now, 5*time.Millisecond) {
			drops++
		}
	}
	if drops == 0 {
		t.Fatal("no drops despite sojourn standing above target for 200ms")
	}
	if !c.Dropping() {
		t.Fatal("not in dropping state under persistent congestion")
	}
	// The sqrt control law tightens the drop spacing: the second 100ms of
	// congestion must shed at least as much as the first.

	// Phase 3: sojourn recovers below target: dropping stops immediately.
	now += time.Millisecond
	if !c.Admit(now, time.Millisecond) {
		t.Fatal("dropped a request whose sojourn was below target")
	}
	if c.Dropping() {
		t.Fatal("still dropping after sojourn recovered below target")
	}
	// And stays clean afterwards.
	for i := 0; i < 50; i++ {
		now += time.Millisecond
		if !c.Admit(now, time.Millisecond) {
			t.Fatalf("dropped at %v after recovery", now)
		}
	}
}

// TestCoDelDropCadenceTightens verifies the interval/sqrt(count) control
// law: under sustained congestion the gap between consecutive drops shrinks.
func TestCoDelDropCadenceTightens(t *testing.T) {
	c := newCoDel(2*time.Millisecond, 20*time.Millisecond)
	now := time.Duration(0)
	var dropTimes []time.Duration
	for i := 0; i < 2000; i++ {
		now += time.Millisecond
		if !c.Admit(now, 10*time.Millisecond) {
			dropTimes = append(dropTimes, now)
		}
	}
	if len(dropTimes) < 4 {
		t.Fatalf("only %d drops under sustained congestion", len(dropTimes))
	}
	first := dropTimes[1] - dropTimes[0]
	last := dropTimes[len(dropTimes)-1] - dropTimes[len(dropTimes)-2]
	if last > first {
		t.Fatalf("drop gap widened under congestion: first %v, last %v", first, last)
	}
}

package federation

import (
	"testing"
	"time"
)

// These tests pin the peering-session resync contract: a reconnect inside
// the configpush retain window is served exactly ONE combined catch-up
// delta covering everything missed; a reconnect past the window is served
// a full resync; and a healed partition converges with zero stale-config
// windows left open.

// runEstablished brings a 2-region mesh to steady state (peering active,
// both directions acked) and returns it with the heartbeat horizon set.
func runEstablished(t *testing.T, horizon time.Duration) *testMesh {
	t.Helper()
	tm := newTestMesh(t, Config{}, 2)
	tm.start(horizon)
	tm.s.RunUntil(5 * time.Second)
	p := tm.mesh.Peering("region-1", "region-2")
	if p.State() != StateActive {
		t.Fatalf("peering not active at steady state: %v", p.State())
	}
	return tm
}

// touchEvery schedules n export-set changes on region-2, spaced apart, so
// each lands in its own heartbeat-paced publish (its own snapshot version).
func (tm *testMesh) touchEvery(start, gap time.Duration, n int) {
	for i := 0; i < n; i++ {
		tm.s.At(start+time.Duration(i)*gap, func() { tm.svc.TouchPolicy() })
	}
}

func TestReconnectWithinRetainGetsOneCombinedDelta(t *testing.T) {
	tm := runEstablished(t, 60*time.Second)
	p := tm.mesh.Peering("region-1", "region-2")
	sess := p.SessionTo("region-1") // region-2 exports -> region-1 imports
	d := p.DistributorTo("region-1")

	preDeltas, preResyncs := sess.Deltas, sess.Resyncs
	preAcked := sess.Acked()

	// Partition, then publish 4 versions during the outage — fewer than
	// retain, so the importer's base version stays diffable.
	tm.s.At(10*time.Second, func() { _ = tm.mesh.Partition("region-1", "region-2") })
	tm.touchEvery(12*time.Second, 2*time.Second, 4)
	tm.s.At(25*time.Second, func() { _ = tm.mesh.Heal("region-1", "region-2") })
	tm.s.RunUntil(40 * time.Second)
	tm.s.Run()

	if head := d.Version(); head != preAcked+4 {
		t.Fatalf("head %d, want %d (4 versions published during the outage)", head, preAcked+4)
	}
	if sess.Acked() != d.Version() {
		t.Fatalf("acked %d != head %d after heal", sess.Acked(), d.Version())
	}
	if got := sess.Deltas - preDeltas; got != 1 {
		t.Fatalf("catch-up used %d deltas, want exactly one combined delta", got)
	}
	if got := sess.Resyncs - preResyncs; got != 0 {
		t.Fatalf("catch-up used %d resyncs, want none inside the retain window", got)
	}
	if p.Reconnects != 1 {
		t.Fatalf("Reconnects = %d, want 1", p.Reconnects)
	}
	if p.Epoch() != 1 {
		t.Fatalf("Epoch = %d, want 1 (one disconnect)", p.Epoch())
	}
}

func TestReconnectPastRetainFullResyncs(t *testing.T) {
	// Publish 10 versions during the outage, more than the export stream
	// retains (8), so the importer's acked base is evicted when the link
	// heals.
	tm := runEstablished(t, 80*time.Second)
	p := tm.mesh.Peering("region-1", "region-2")
	sess := p.SessionTo("region-1")
	d := p.DistributorTo("region-1")

	preDeltas, preResyncs := sess.Deltas, sess.Resyncs

	tm.s.At(10*time.Second, func() { _ = tm.mesh.Partition("region-1", "region-2") })
	tm.touchEvery(12*time.Second, 2*time.Second, 10)
	tm.s.At(34*time.Second, func() { _ = tm.mesh.Heal("region-1", "region-2") })
	tm.s.RunUntil(54 * time.Second)
	tm.s.Run()

	if sess.Acked() != d.Version() {
		t.Fatalf("acked %d != head %d after heal", sess.Acked(), d.Version())
	}
	if got := sess.Resyncs - preResyncs; got != 1 {
		t.Fatalf("catch-up used %d resyncs, want exactly one full resync past the retain window", got)
	}
	if got := sess.Deltas - preDeltas; got != 0 {
		t.Fatalf("catch-up used %d deltas, want none (base version evicted)", got)
	}
}

func TestDisconnectMidDeltaDropsInFlight(t *testing.T) {
	tm := runEstablished(t, 60*time.Second)
	p := tm.mesh.Peering("region-1", "region-2")
	sess := p.SessionTo("region-1")

	// Publish at t=10s: the heartbeat at 10s flushes and puts a delta on
	// the WAN (delivery takes the 30ms RTT overhead). Cut the link while
	// that payload is in flight.
	tm.s.At(9900*time.Millisecond, func() { tm.svc.TouchPolicy() })
	tm.s.At(10*time.Second+5*time.Millisecond, func() { _ = tm.mesh.Partition("region-1", "region-2") })
	preAcks := 0
	tm.s.At(10*time.Second+time.Millisecond, func() { preAcks = sess.Acks })
	tm.s.At(20*time.Second, func() { _ = tm.mesh.Heal("region-1", "region-2") })
	tm.s.RunUntil(40 * time.Second)
	tm.s.Run()

	d := p.DistributorTo("region-1")
	if sess.Acked() != d.Version() {
		t.Fatalf("acked %d != head %d: the dropped in-flight delta was never recovered", sess.Acked(), d.Version())
	}
	// Exactly one ack after the heal: the combined catch-up. The in-flight
	// delivery at partition time must NOT have been counted.
	if got := sess.Acks - preAcks; got != 1 {
		t.Fatalf("%d acks after the mid-flight cut, want exactly the one catch-up ack", got)
	}
}

func TestHealedPartitionLeavesNoStaleWindowsOpen(t *testing.T) {
	tm := runEstablished(t, 60*time.Second)
	p := tm.mesh.Peering("region-1", "region-2")

	tm.s.At(10*time.Second, func() { _ = tm.mesh.Partition("region-1", "region-2") })
	tm.touchEvery(12*time.Second, 3*time.Second, 3)
	tm.s.At(25*time.Second, func() { _ = tm.mesh.Heal("region-1", "region-2") })
	tm.s.RunUntil(45 * time.Second)
	tm.s.Run()

	if p.State() != StateActive {
		t.Fatalf("peering state %v after heal, want active", p.State())
	}
	for _, region := range []string{"region-1", "region-2"} {
		d := p.DistributorTo(region)
		sess := p.SessionTo(region)
		st := d.Stats()
		if st.Unconverged != 0 {
			t.Fatalf("stream into %s: %d versions still unconverged after heal + drain", region, st.Unconverged)
		}
		if sess.Acked() != d.Version() {
			t.Fatalf("stream into %s: acked %d != head %d", region, sess.Acked(), d.Version())
		}
		// Every recorded stale window is closed by construction once the
		// session acked head; they must all be finite and accounted.
		for _, w := range sess.StaleWindows() {
			if w < 0 {
				t.Fatalf("negative stale window %v", w)
			}
		}
	}
	// The healed import views converge back to the true backend sets.
	if n := tm.mesh.ImportedEndpoints("region-1", "region-2", tm.svc); n != 4 {
		t.Fatalf("post-heal import view has %d endpoints, want 4", n)
	}
}

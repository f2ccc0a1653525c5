package configpush

import (
	"testing"
	"time"

	"canalmesh/internal/controlplane"
)

// TestReconnectAfterFewVersionsGetsOneCombinedDelta: a subscriber acks
// version N, disconnects, M snapshots pass with M inside the retention
// window, and on reconnect receives exactly ONE combined delta N→head —
// never a replay of M per-version deltas.
func TestReconnectAfterFewVersionsGetsOneCombinedDelta(t *testing.T) {
	s, c, d := rig(t, controlplane.AmbientModel, time.Second, false)
	sess := d.Session("l4/n001")
	s.At(2*time.Second, func() { d.Disconnect("l4/n001") })
	// Three separated churn windows while partitioned: 3 new versions.
	for i := 0; i < 3; i++ {
		addPod(t, s, c, time.Duration(i+5)*5*time.Second, "svc00", i%4)
	}
	s.At(60*time.Second, func() { d.Reconnect("l4/n001") })
	s.Run()

	if lag := sess.Lag(d.Version()); lag != 0 {
		t.Fatalf("session still %d versions behind after reconnect", lag)
	}
	if sess.Resyncs != 0 {
		t.Errorf("resyncs = %d, want 0 (acked version was retained)", sess.Resyncs)
	}
	if sess.Deltas != 1 {
		t.Errorf("deltas = %d, want exactly 1 combined catch-up delta", sess.Deltas)
	}
	if sess.Acked() != d.Version() {
		t.Errorf("acked = %d, head = %d", sess.Acked(), d.Version())
	}
}

// TestReconnectPastRetentionForcesFullResync: when more versions pass than
// the store retains, the acked version is evicted and the reconnect must
// fall back to a full resync (not an unserveable delta).
func TestReconnectPastRetentionForcesFullResync(t *testing.T) {
	s := simNew(t)
	c := buildCluster(t, 4, 3, 4)
	d := New(Config{
		Sim: s, Cluster: c, Sizing: controlplane.DefaultSizing(),
		Model: controlplane.AmbientModel, Debounce: time.Second,
	})
	d.SubscribeModel()
	d.SyncAll()
	sess := d.Session("l4/n001")
	s.At(2*time.Second, func() { d.Disconnect("l4/n001") })
	// retainVersions+2 separated windows: the baseline version is evicted.
	for i := 0; i < retainVersions+2; i++ {
		addPod(t, s, c, time.Duration(i+5)*5*time.Second, "svc00", i%4)
	}
	s.At(120*time.Second, func() { d.Reconnect("l4/n001") })
	s.Run()

	if sess.Resyncs != 1 {
		t.Errorf("resyncs = %d, want 1 full resync (version evicted)", sess.Resyncs)
	}
	if sess.Deltas != 0 {
		t.Errorf("deltas = %d, want 0 — a stale subscriber must not replay deltas", sess.Deltas)
	}
	if sess.Acked() != d.Version() {
		t.Errorf("acked = %d, head = %d", sess.Acked(), d.Version())
	}
}

// TestNackRetriesWithExponentialBackoff: a nacked delivery is retried after
// backoffBase, then 2x, 4x... until acked, and the retry carries the
// freshest payload.
func TestNackRetriesWithExponentialBackoff(t *testing.T) {
	s, c, d := rig(t, controlplane.CanalModel, time.Second, false)
	gw := d.Session("gateway")
	gw.FailNext(2)
	addPod(t, s, c, 0, "svc00", 0)
	s.Run()

	if gw.Nacks != 2 {
		t.Fatalf("nacks = %d, want 2", gw.Nacks)
	}
	if gw.Acks != 1 {
		t.Fatalf("acks = %d, want 1 after retries", gw.Acks)
	}
	// Flush at 1s; first delivery ~1s+transfer; retry 1 after 200ms, retry
	// 2 after 400ms more: the final ack cannot land before 1.6s.
	if gw.LastAckAt() < 1600*time.Millisecond {
		t.Errorf("final ack at %v, want >= 1.6s (two backoff rounds)", gw.LastAckAt())
	}
	if gw.Acked() != d.Version() {
		t.Errorf("acked = %d, head %d", gw.Acked(), d.Version())
	}
}

// TestInFlightSupersededBySingleCatchUp: while a delivery is on the link,
// more versions publish; on ack the session catches up with ONE combined
// delta to head instead of queueing one send per missed version.
func TestInFlightSupersededBySingleCatchUp(t *testing.T) {
	s := simNew(t)
	c := buildCluster(t, 4, 3, 4)
	sz := controlplane.DefaultSizing()
	sz.SouthboundBps = 300 // starve the link so one send outlasts later flushes
	d := New(Config{
		Sim: s, Cluster: c, Sizing: sz,
		Model: controlplane.CanalModel, Debounce: time.Second,
	})
	d.SubscribeModel()
	d.SyncAll()
	gw := d.Session("gateway")
	// Window 1 publishes at 1s and its ~1.3KB delta takes ~4.4s on the
	// starved link; windows 2 (3.5s) and 3 (5s) publish while it is in
	// flight.
	addPod(t, s, c, 0, "svc00", 0)
	addPod(t, s, c, 2500*time.Millisecond, "svc01", 1)
	addPod(t, s, c, 4*time.Second, "svc02", 2)
	s.Run()

	if d.Builds() != 3 {
		t.Fatalf("builds = %d, want 3", d.Builds())
	}
	// First delta + one combined catch-up, not three sends.
	if gw.Deltas != 2 {
		t.Errorf("gateway deltas = %d, want 2 (initial + one combined catch-up)", gw.Deltas)
	}
	if gw.Acked() != d.Version() {
		t.Errorf("acked = %d, head %d", gw.Acked(), d.Version())
	}
	st := d.Stats()
	if st.Unconverged != 0 {
		t.Errorf("unconverged = %d after drain", st.Unconverged)
	}
}

// TestCancelledChangesAdvanceSilently: a pod added and removed while a
// subscriber was partitioned cancels out of the combined delta; the
// reconnect advances the subscriber to head without any bytes.
func TestCancelledChangesAdvanceSilently(t *testing.T) {
	s, c, d := rig(t, controlplane.CanalModel, time.Second, false)
	sess := d.Session("node/n001")
	s.At(2*time.Second, func() { d.Disconnect("node/n001") })
	var podName string
	s.At(5*time.Second, func() {
		p, err := c.AddPod("svc00", c.Nodes()[1], clusterResources())
		if err != nil {
			t.Errorf("AddPod: %v", err)
			return
		}
		podName = p.Name
	})
	s.At(15*time.Second, func() {
		if err := c.RemovePod(podName); err != nil {
			t.Errorf("RemovePod: %v", err)
		}
	})
	s.At(30*time.Second, func() { d.Reconnect("node/n001") })
	s.Run()

	if sess.BytesReceived != 0 {
		t.Errorf("session received %d bytes, want 0 (changes cancelled out)", sess.BytesReceived)
	}
	if sess.Acked() != d.Version() {
		t.Errorf("acked = %d, head %d (must advance silently)", sess.Acked(), d.Version())
	}
}

// TestStaleWindowsGrowWithLinkStarvation: the recorded stale-config
// windows must reflect queueing behind the southbound link — a starved
// link yields strictly larger windows than a fast one.
func TestStaleWindowsGrowWithLinkStarvation(t *testing.T) {
	run := func(bps int64) time.Duration {
		s := simNew(t)
		c := buildCluster(t, 4, 3, 4)
		sz := controlplane.DefaultSizing()
		sz.SouthboundBps = bps
		d := New(Config{
			Sim: s, Cluster: c, Sizing: sz,
			Model: controlplane.IstioModel, Debounce: time.Second,
		})
		d.SubscribeModel()
		d.SyncAll()
		for i := 0; i < 3; i++ {
			addPod(t, s, c, time.Duration(i)*5*time.Second, "svc00", i%4)
		}
		s.Run()
		return Percentile(d.Stats().Stale, 0.99)
	}
	fast := run(controlplane.DefaultSizing().SouthboundBps)
	slow := run(200_000)
	if slow <= fast {
		t.Errorf("stale p99 on starved link = %v, want > %v (fast link)", slow, fast)
	}
}

// TestOwedQueueKeepsItsArray: in a steady publish/ack cycle a session owes
// one version at a time, and settling it cuts it from the queue in place:
// the queue keeps one backing array across every cycle instead of dropping
// it with the head and allocating a new one on the next publish.
func TestOwedQueueKeepsItsArray(t *testing.T) {
	s, c, d := rig(t, controlplane.CanalModel, time.Second, false)
	gw := d.Session("gateway")
	const cycles = 20
	start := d.Version()
	var first **versionRecord
	for i := 0; i < cycles; i++ {
		addPod(t, s, c, time.Duration(i+1)*10*time.Second, "svc00", i%4)
		s.RunUntil(time.Duration(i+2) * 10 * time.Second)
		if len(gw.owes) != 0 || gw.Acked() != d.Version() {
			t.Fatalf("cycle %d: %d versions owed, acked %d of %d: not a steady cycle", i, len(gw.owes), gw.Acked(), d.Version())
		}
		if cap(gw.owes) == 0 {
			t.Fatalf("cycle %d: the settled queue holds no array", i)
		}
		if head := &gw.owes[:1][0]; first == nil {
			first = head
		} else if head != first {
			t.Fatalf("cycle %d: the owed queue moved to a new array", i)
		}
	}
	if got := d.Version() - start; got != cycles {
		t.Fatalf("%d versions published over %d cycles", got, cycles)
	}
}

package bench

import (
	"bytes"
	"context"
	"testing"
	"time"

	"canalmesh/internal/federation"
)

// TestFederationByteDeterminism runs both federation experiments twice and
// demands byte-identical rendered tables and JSON: the whole timeline is
// virtual time, so a second run (or -count=2) must reproduce exactly.
func TestFederationByteDeterminism(t *testing.T) {
	run := func() (string, []byte) {
		evac, split, rep := FederationResult(context.Background(), DefaultFederationSpec())
		js, err := rep.JSON()
		if err != nil {
			t.Fatal(err)
		}
		return evac.String() + split.String(), js
	}
	t1, j1 := run()
	t2, j2 := run()
	if t1 != t2 {
		t.Errorf("table text differs between identical runs:\n--- run1\n%s\n--- run2\n%s", t1, t2)
	}
	if !bytes.Equal(j1, j2) {
		t.Errorf("JSON report differs between identical runs")
	}
}

// TestFederationBaseline pins the full report byte for byte against the
// checked-in BENCH_federation.json, and regenerates it under
// CANAL_UPDATE_BENCH=1.
func TestFederationBaseline(t *testing.T) {
	_, _, rep := FederationResult(context.Background(), DefaultFederationSpec())
	js, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	pinReport(t, "BENCH_federation.json", js)
}

// TestFedEvacSpilloverRecovers is the evacuation acceptance check: WAN
// spillover must keep the victim region fully available (vs the collapsed
// no-federation control) while the peer regions hold their availability and
// latency — the blast radius stays contained — and every victim trace's hop
// attribution must reconcile exactly with its end-to-end latency.
func TestFedEvacSpilloverRecovers(t *testing.T) {
	_, rep := FedEvacResult(context.Background(), DefaultFederationSpec())
	if len(rep.Rows) != 3 {
		t.Fatalf("rows = %d, want baseline / no-federation / spillover", len(rep.Rows))
	}
	byMode := map[string]FedEvacRow{}
	for _, row := range rep.Rows {
		byMode[row.Mode] = row
	}
	base, off, on := byMode["baseline"], byMode["no-federation"], byMode["spillover"]

	if on.VictimAvailPct < base.VictimAvailPct {
		t.Errorf("spillover victim availability %.1f%% below baseline %.1f%%", on.VictimAvailPct, base.VictimAvailPct)
	}
	if off.VictimAvailPct >= on.VictimAvailPct {
		t.Errorf("control no-federation availability %.1f%% not below spillover %.1f%%: the evacuation is not biting",
			off.VictimAvailPct, on.VictimAvailPct)
	}
	if on.Spilled == 0 || on.Unserved != 0 {
		t.Errorf("spillover mode: %d spilled, %d unserved; want spills and zero unserved", on.Spilled, on.Unserved)
	}
	// Blast radius: the healthy regions absorb the spill without losing
	// availability or visibly degrading their own tail.
	if on.PeerAvailPct != 100 {
		t.Errorf("peer availability %.1f%% under spillover, want 100%%", on.PeerAvailPct)
	}
	if on.PeerP99MS > base.PeerP99MS*2+1 {
		t.Errorf("peer p99 %.2fms under spillover vs %.2fms baseline: blast radius not contained", on.PeerP99MS, base.PeerP99MS)
	}
	// Spilled latency carries the WAN round trip, and the critical-path
	// analyzer attributes it: the WAN share dominates a spilled trace.
	if on.VictimP99MS < 30 {
		t.Errorf("spillover victim p99 %.2fms does not include the 30ms WAN round trip", on.VictimP99MS)
	}
	if on.WANSharePct < 50 {
		t.Errorf("WAN share %.1f%% of spilled victim traces, want the WAN to dominate", on.WANSharePct)
	}
	for _, row := range rep.Rows {
		if row.TraceMismatches != 0 {
			t.Errorf("%s: %d victim traces whose hop sums do not reconcile with end-to-end latency", row.Mode, row.TraceMismatches)
		}
	}
}

// TestFedSplitTimeline is the split-brain acceptance check: the partition is
// detected exactly at the missed-heartbeat timeout, traffic spilled into the
// undetected window is blackholed, the mid-partition recovery reaches the
// peer as one combined catch-up delta (no resync) at the heal, and no stale
// windows stay open.
func TestFedSplitTimeline(t *testing.T) {
	spec := DefaultFederationSpec()
	_, rep := FedSplitResult(context.Background(), spec)
	if rep == nil {
		t.Fatal("nil split report")
	}
	window := federation.FailAfter * federation.Heartbeat
	if got := rep.DetectedSec - rep.PartitionSec; got <= 0 || got > window.Seconds()+federation.Heartbeat.Seconds() {
		t.Errorf("detection %.1fs after the cut, want within (%v, %v]", got, 0*time.Second, window+federation.Heartbeat)
	}
	if rep.SpillLost == 0 {
		t.Error("no blackholed requests in the split-brain window")
	}
	if rep.Unserved == 0 {
		t.Error("no unserved requests after detection; the down peering should stop spillover")
	}
	if rep.ReconnectedSec <= rep.HealSec {
		t.Errorf("reconnect at %.1fs not after the heal at %.1fs", rep.ReconnectedSec, rep.HealSec)
	}
	if rep.CatchupResyncs != 0 || rep.CatchupDeltas < 1 {
		t.Errorf("catch-up used %d deltas, %d resyncs; want >=1 delta and 0 resyncs inside the retain window",
			rep.CatchupDeltas, rep.CatchupResyncs)
	}
	if rep.Epoch != 1 || rep.Reconnects != 1 {
		t.Errorf("epoch %d, reconnects %d; want exactly one disconnect/reconnect cycle", rep.Epoch, rep.Reconnects)
	}
	if rep.Unconverged != 0 {
		t.Errorf("%d versions unconverged after heal + drain", rep.Unconverged)
	}
	if rep.PostHealOKPct != 100 {
		t.Errorf("post-heal availability %.1f%%, want 100%%", rep.PostHealOKPct)
	}
	if rep.ImportedAfterHeal != spec.BackendsPerRegion {
		t.Errorf("peer imports %d endpoints after heal, want the recovered region's %d", rep.ImportedAfterHeal, spec.BackendsPerRegion)
	}
}

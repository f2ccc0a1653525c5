package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/netip"
	"time"

	"canalmesh/internal/cloud"
	"canalmesh/internal/configpush"
	"canalmesh/internal/federation"
	"canalmesh/internal/gateway"
	"canalmesh/internal/l7"
	"canalmesh/internal/netmodel"
	"canalmesh/internal/sim"
	"canalmesh/internal/trace"
)

// This file holds the multi-region federation experiments: "fed-evac"
// evacuates a region under steady load and compares victim-region
// availability and peer-region blast radius with spillover off and on, and
// "fed-split" partitions a peering mid-spill to measure the split-brain
// window (blackholed WAN traffic until the missed-heartbeat timeout), the
// detection and reconnect instants, and the catch-up path — one combined
// delta, zero resyncs, zero stale windows — after the heal. Both run
// entirely in virtual time and back the checked-in BENCH_federation.json.

// FederationSpec parameterizes both federation experiments.
type FederationSpec struct {
	Regions            int // fed-evac federation size (fed-split always uses 2)
	BackendsPerRegion  int
	ReplicasPerBackend int

	LoadInterval       time.Duration // per-region request spacing
	LoadStart, LoadEnd time.Duration // offered-load window

	EvacAt      time.Duration // region-1 evacuation instant
	RecoverAt   time.Duration // fed-split: region-1 recovery (mid-partition)
	PartitionAt time.Duration // fed-split: physical link cut
	HealAt      time.Duration // fed-split: physical link restore
	Horizon     time.Duration // heartbeat-loop lifetime

	Seed int64
}

// DefaultFederationSpec is a three-region federation under 20 rps/region
// with the split-brain timeline laid out so every phase — spill, blackhole,
// detected-down, local recovery, heal — gets its own measured window.
func DefaultFederationSpec() FederationSpec {
	return FederationSpec{
		Regions:            3,
		BackendsPerRegion:  4,
		ReplicasPerBackend: 2,
		LoadInterval:       50 * time.Millisecond,
		LoadStart:          2 * time.Second,
		LoadEnd:            32 * time.Second,
		EvacAt:             5 * time.Second,
		RecoverAt:          18 * time.Second,
		PartitionAt:        12500 * time.Millisecond,
		HealAt:             24500 * time.Millisecond,
		Horizon:            45 * time.Second,
		Seed:               7,
	}
}

// FedEvacRow is one evacuation mode's outcome.
type FedEvacRow struct {
	Mode string `json:"mode"` // "baseline", "no-federation", "spillover"

	VictimRequests int     `json:"victim_requests"`
	VictimOK       int     `json:"victim_ok"`
	VictimAvailPct float64 `json:"victim_avail_pct"`
	VictimP50MS    float64 `json:"victim_p50_ms"`
	VictimP99MS    float64 `json:"victim_p99_ms"`

	// Peer metrics are the worst case over the non-victim regions: the
	// blast-radius measurement.
	PeerAvailPct float64 `json:"peer_avail_pct"`
	PeerP99MS    float64 `json:"peer_p99_ms"`

	Spilled   int `json:"spilled"`
	SpillLost int `json:"spill_lost"`
	Unserved  int `json:"unserved"`

	// WANSharePct is the WAN fraction of attributed victim-trace time; the
	// mismatch counter is the number of victim traces whose hop sums did NOT
	// reconcile exactly with the end-to-end latency (must be zero).
	WANSharePct     float64 `json:"wan_share_pct"`
	TraceMismatches int     `json:"trace_mismatches"`
}

// FedEvacReport is the machine-readable fed-evac result.
type FedEvacReport struct {
	Regions  int     `json:"regions"`
	Backends int     `json:"backends_per_region"`
	Replicas int     `json:"replicas_per_backend"`
	LoadRPS  float64 `json:"load_rps_per_region"`
	Seed     int64   `json:"seed"`

	Rows []FedEvacRow `json:"rows"`
	// RecoveryPct is the availability spillover wins back on the victim:
	// spillover avail minus no-federation avail, in points.
	RecoveryPct float64 `json:"recovery_pct"`
}

// FedSplitReport is the machine-readable fed-split result: the split-brain
// timeline and the resync accounting after the heal.
type FedSplitReport struct {
	HeartbeatSec float64 `json:"heartbeat_sec"`
	FailAfter    int     `json:"fail_after"`
	Seed         int64   `json:"seed"`

	PartitionSec   float64 `json:"partition_sec"`
	DetectedSec    float64 `json:"detected_sec"`
	HealSec        float64 `json:"heal_sec"`
	ReconnectedSec float64 `json:"reconnected_sec"`
	// SplitBrainSec is the undetected window: spilled requests routed into
	// the dead link during it are blackholed.
	SplitBrainSec float64 `json:"split_brain_sec"`

	Served    int `json:"served"`
	Spilled   int `json:"spilled"`
	SpillLost int `json:"spill_lost"`
	Unserved  int `json:"unserved"`
	Local     int `json:"local"`

	// Catch-up accounting on the region-1 -> region-2 stream (region-1
	// recovered mid-partition, so the heal must ship its endpoints back).
	CatchupDeltas  int `json:"catchup_deltas"`
	CatchupResyncs int `json:"catchup_resyncs"`
	Reconnects     int `json:"reconnects"`
	Epoch          int `json:"epoch"`
	Unconverged    int `json:"unconverged"`

	PostHealOKPct     float64 `json:"post_heal_ok_pct"`
	ImportedAfterHeal int     `json:"imported_after_heal"`
}

// FederationReport bundles both experiments behind BENCH_federation.json.
type FederationReport struct {
	Evac  *FedEvacReport  `json:"evac"`
	Split *FedSplitReport `json:"split"`
}

// JSON renders the report deterministically.
func (r *FederationReport) JSON() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}

// fedHarness is one constructed federation ready to drive.
type fedHarness struct {
	s      *sim.Sim
	tracer *trace.Tracer
	mesh   *federation.Mesh
	svc    *federation.Service
}

// buildFed provisions a federation of identical regions — each a 2-AZ cloud
// region whose gateway owns BackendsPerRegion backends — registers one
// service everywhere, and (optionally) peers every pair.
func buildFed(spec FederationSpec, regions int, peer bool) (*fedHarness, error) {
	s := sim.New(spec.Seed)
	tracer := trace.New(trace.Config{Seed: spec.Seed, Clock: s.Now})
	m := federation.New(federation.Config{Sim: s, Tracer: tracer})
	for i := 0; i < regions; i++ {
		name := fmt.Sprintf("region-%d", i+1)
		cr := cloud.NewRegion(s, name, "az1", "az2")
		gw := gateway.New(gateway.Config{
			Sim: s, Costs: netmodel.Default(),
			ShardSize: spec.BackendsPerRegion, Seed: spec.Seed,
		})
		for j := 0; j < spec.BackendsPerRegion; j++ {
			az := cr.AZ([]string{"az1", "az2"}[j%2])
			if _, err := gw.AddBackend(az, spec.ReplicasPerBackend, 2, false); err != nil {
				return nil, err
			}
		}
		m.AddRegion(cr, gw)
	}
	svc, err := m.AddService("bench", "api", 100, netip.MustParseAddr("10.0.0.10"), 80, false,
		l7.ServiceConfig{DefaultSubset: "v1"})
	if err != nil {
		return nil, err
	}
	if peer {
		m.PeerAll()
	}
	return &fedHarness{s: s, tracer: tracer, mesh: m, svc: svc}, nil
}

// fedTally accumulates one region's request outcomes.
type fedTally struct {
	total, ok int
	okLats    []time.Duration
}

// offerLoad schedules the spec's request train into the named region. Victim
// requests (traced == true) each carry a trace and verify on completion that
// the hop attribution sums exactly to the end-to-end latency.
func (h *fedHarness) offerLoad(spec FederationSpec, region string, traced bool, tally *fedTally, traces *[]*trace.Trace, mismatches *int) {
	seq := 0
	for at := spec.LoadStart; at < spec.LoadEnd; at += spec.LoadInterval {
		seq++
		sq := seq
		h.s.At(at, func() {
			var tr *trace.Trace
			if traced {
				tr = h.tracer.Start("canal", "GET /")
				*traces = append(*traces, tr)
			}
			flow := cloud.SessionKey{
				SrcIP: "10.9.0.1", SrcPort: uint16(sq%60000 + 1),
				DstIP: "10.0.0.10", DstPort: 80, Proto: 6,
			}
			req := l7.Request{Method: "GET", Path: "/", BodyBytes: 1024}
			h.mesh.Dispatch(region, h.svc, "az1", flow, req, 1, tr, func(lat time.Duration, status int) {
				tally.total++
				if status == l7.StatusOK {
					tally.ok++
					tally.okLats = append(tally.okLats, lat)
				}
				if tr != nil {
					h.tracer.Finish(tr, status)
					var hopSum time.Duration
					for _, hop := range tr.Hops() {
						hopSum += hop.Net + hop.Queue + hop.CPU + hop.WAN
					}
					if hopSum != lat {
						*mismatches++
					}
				}
			})
		})
	}
}

func pct(ok, total int) float64 {
	if total == 0 {
		return 0
	}
	return 100 * float64(ok) / float64(total)
}

// runFedEvac executes one evacuation mode: "baseline" (peered, no failure),
// "no-federation" (unpeered, region-1 evacuated — the control), "spillover"
// (peered, region-1 evacuated).
func runFedEvac(spec FederationSpec, mode string) (FedEvacRow, error) {
	peer := mode != "no-federation"
	h, err := buildFed(spec, spec.Regions, peer)
	if err != nil {
		return FedEvacRow{}, err
	}
	horizon := spec.Horizon
	h.mesh.Start(func() bool { return h.s.Now() >= horizon })
	if mode != "baseline" {
		h.s.At(spec.EvacAt, func() { h.mesh.Region("region-1").Cloud().FailRegion() })
	}

	tallies := make([]*fedTally, spec.Regions)
	var victimTraces []*trace.Trace
	mismatches := 0
	for i := 0; i < spec.Regions; i++ {
		tallies[i] = &fedTally{}
		h.offerLoad(spec, fmt.Sprintf("region-%d", i+1), i == 0, tallies[i], &victimTraces, &mismatches)
	}
	h.s.Run()

	victim := tallies[0]
	row := FedEvacRow{
		Mode:            mode,
		VictimRequests:  victim.total,
		VictimOK:        victim.ok,
		VictimAvailPct:  pct(victim.ok, victim.total),
		VictimP50MS:     ms(configpush.Percentile(victim.okLats, 0.5)),
		VictimP99MS:     ms(configpush.Percentile(victim.okLats, 0.99)),
		PeerAvailPct:    100,
		WANSharePct:     math.Round(10000*trace.Analyze(victimTraces).WANShare()) / 100,
		TraceMismatches: mismatches,
	}
	for _, tl := range tallies[1:] {
		if p := pct(tl.ok, tl.total); p < row.PeerAvailPct {
			row.PeerAvailPct = p
		}
		if p99 := ms(configpush.Percentile(tl.okLats, 0.99)); p99 > row.PeerP99MS {
			row.PeerP99MS = p99
		}
	}
	st := h.mesh.Region("region-1").Stats()
	row.Spilled, row.SpillLost, row.Unserved = st.Spilled, st.SpillLost, st.Unserved
	return row, nil
}

// fedEvacModes enumerates the experiment grid in fixed order.
func fedEvacModes() []string { return []string{"baseline", "no-federation", "spillover"} }

// FedEvacResult runs the evacuation grid (each mode its own seeded
// simulation) and returns the rendered table and the report.
func FedEvacResult(ctx context.Context, spec FederationSpec) (*Table, *FedEvacReport) {
	modes := fedEvacModes()
	rows := make([]FedEvacRow, len(modes))
	errs := make([]error, len(modes))
	ForEachPoint(ctx, len(modes), func(i int) {
		rows[i], errs[i] = runFedEvac(spec, modes[i])
	})

	t := &Table{
		ID: "fed-evac",
		Title: fmt.Sprintf("Region evacuation: WAN spillover vs no federation (%d regions, %.0f rps/region)",
			spec.Regions, float64(time.Second)/float64(spec.LoadInterval)),
		Headers: []string{"Mode", "Victim avail %", "Victim p50 (ms)", "Victim p99 (ms)",
			"Peer avail %", "Peer p99 (ms)", "Spilled", "Unserved"},
	}
	rep := &FedEvacReport{
		Regions:  spec.Regions,
		Backends: spec.BackendsPerRegion,
		Replicas: spec.ReplicasPerBackend,
		LoadRPS:  float64(time.Second) / float64(spec.LoadInterval),
		Seed:     spec.Seed,
	}
	byMode := map[string]FedEvacRow{}
	for i, row := range rows {
		if err := errs[i]; err != nil {
			t.Notes = append(t.Notes, fmt.Sprintf("%s failed: %v", modes[i], err))
			continue
		}
		if ctx.Err() != nil {
			return t, rep
		}
		rep.Rows = append(rep.Rows, row)
		byMode[row.Mode] = row
		t.AddRow(row.Mode, row.VictimAvailPct, row.VictimP50MS, row.VictimP99MS,
			row.PeerAvailPct, row.PeerP99MS, row.Spilled, row.Unserved)
	}
	off, okOff := byMode["no-federation"]
	on, okOn := byMode["spillover"]
	if okOff && okOn {
		rep.RecoveryPct = on.VictimAvailPct - off.VictimAvailPct
		t.Notes = append(t.Notes, fmt.Sprintf(
			"spillover recovers %.1f points of victim availability (%.1f%% -> %.1f%%) at %.0fms victim p99, peers hold %.1f%%",
			rep.RecoveryPct, off.VictimAvailPct, on.VictimAvailPct, on.VictimP99MS, on.PeerAvailPct))
	}
	return t, rep
}

// runFedSplit executes the partitioned-region timeline on a 2-region
// federation: evacuate region-1 (its traffic spills), cut the link
// physically, let the missed-heartbeat timeout detect it, recover region-1
// mid-partition (so the heal has a config delta to catch up), then heal.
func runFedSplit(spec FederationSpec) (*FedSplitReport, error) {
	h, err := buildFed(spec, 2, true)
	if err != nil {
		return nil, err
	}
	horizon := spec.Horizon
	h.mesh.Start(func() bool { return h.s.Now() >= horizon })
	h.s.At(spec.EvacAt, func() { h.mesh.Region("region-1").Cloud().FailRegion() })
	h.s.At(spec.PartitionAt, func() { _ = h.mesh.Partition("region-1", "region-2") })
	h.s.At(spec.RecoverAt, func() { h.mesh.Region("region-1").Cloud().RecoverRegion() })
	h.s.At(spec.HealAt, func() { _ = h.mesh.Heal("region-1", "region-2") })

	// Watch the peering state machine to timestamp detection and reconnect.
	p := h.mesh.Peering("region-1", "region-2")
	sessToPeer := p.SessionTo("region-2") // region-1 exports -> region-2 imports
	var detectedAt, reconnectedAt time.Duration
	var preDeltas, preResyncs int
	h.s.At(spec.PartitionAt, func() { preDeltas, preResyncs = sessToPeer.Deltas, sessToPeer.Resyncs })
	h.s.Every(100*time.Millisecond, func() bool {
		switch {
		case detectedAt == 0 && p.State() == federation.StateDown:
			detectedAt = h.s.Now()
		case detectedAt > 0 && reconnectedAt == 0 && p.State() == federation.StateActive:
			reconnectedAt = h.s.Now()
		}
		return h.s.Now() < horizon
	})

	// Load goes into region-1 only; spacing is doubled so each split phase
	// holds a readable number of requests.
	loadSpec := spec
	loadSpec.LoadInterval = 2 * spec.LoadInterval
	tally := &fedTally{}
	postHeal := &fedTally{}
	var traces []*trace.Trace
	mismatches := 0
	h.offerLoad(loadSpec, "region-1", false, tally, &traces, &mismatches)
	for at := spec.HealAt + time.Second; at < spec.LoadEnd+6*time.Second; at += loadSpec.LoadInterval {
		at := at
		h.s.At(at, func() {
			flow := cloud.SessionKey{SrcIP: "10.9.0.2", SrcPort: uint16(int(at/time.Millisecond)%60000 + 1),
				DstIP: "10.0.0.10", DstPort: 80, Proto: 6}
			h.mesh.Dispatch("region-1", h.svc, "az1", flow, l7.Request{Method: "GET", Path: "/", BodyBytes: 1024}, 1, nil,
				func(lat time.Duration, status int) {
					postHeal.total++
					if status == l7.StatusOK {
						postHeal.ok++
					}
				})
		})
	}
	h.s.Run()

	st := h.mesh.Region("region-1").Stats()
	d := p.DistributorTo("region-2")
	rep := &FedSplitReport{
		HeartbeatSec:      federation.Heartbeat.Seconds(),
		FailAfter:         federation.FailAfter,
		Seed:              spec.Seed,
		PartitionSec:      spec.PartitionAt.Seconds(),
		DetectedSec:       detectedAt.Seconds(),
		HealSec:           spec.HealAt.Seconds(),
		ReconnectedSec:    reconnectedAt.Seconds(),
		SplitBrainSec:     (detectedAt - spec.PartitionAt).Seconds(),
		Served:            tally.ok + postHeal.ok,
		Spilled:           st.Spilled,
		SpillLost:         st.SpillLost,
		Unserved:          st.Unserved,
		Local:             st.Local,
		CatchupDeltas:     sessToPeer.Deltas - preDeltas,
		CatchupResyncs:    sessToPeer.Resyncs - preResyncs,
		Reconnects:        p.Reconnects,
		Epoch:             p.Epoch(),
		Unconverged:       d.Stats().Unconverged,
		PostHealOKPct:     pct(postHeal.ok, postHeal.total),
		ImportedAfterHeal: h.mesh.ImportedEndpoints("region-2", "region-1", h.svc),
	}
	return rep, nil
}

// FedSplitResult runs the split-brain timeline and returns the rendered
// table and the report.
func FedSplitResult(ctx context.Context, spec FederationSpec) (*Table, *FedSplitReport) {
	t := &Table{
		ID:      "fed-split",
		Title:   fmt.Sprintf("Partitioned region: split-brain window and resync (heartbeat %v, fail-after %d)", federation.Heartbeat, federation.FailAfter),
		Headers: []string{"Phase", "Window (s)", "Requests", "Outcome"},
	}
	if ctx.Err() != nil {
		return t, nil
	}
	rep, err := runFedSplit(spec)
	if err != nil {
		t.Notes = append(t.Notes, fmt.Sprintf("fed-split failed: %v", err))
		return t, nil
	}
	t.AddRow("spilling", (rep.PartitionSec - spec.EvacAt.Seconds()), rep.Spilled, "served via peer (200)")
	t.AddRow("split-brain", rep.SplitBrainSec, rep.SpillLost, "blackholed on dead link (503)")
	t.AddRow("detected down", spec.RecoverAt.Seconds()-rep.DetectedSec, rep.Unserved, "unserved, no routable peer (503)")
	t.AddRow("local recovery", rep.HealSec-spec.RecoverAt.Seconds(), rep.Local, "served in-region (200)")
	t.AddRow("healed", rep.ReconnectedSec-rep.HealSec, rep.CatchupDeltas, "catch-up deltas (no resync)")
	t.Notes = append(t.Notes, fmt.Sprintf(
		"partition detected %.1fs after the cut (fail-after %d x %.0fs heartbeat); heal caught up with %d delta(s), %d resync(s), %d unconverged",
		rep.SplitBrainSec, rep.FailAfter, rep.HeartbeatSec, rep.CatchupDeltas, rep.CatchupResyncs, rep.Unconverged))
	return t, rep
}

// FederationResult runs both federation experiments and bundles the reports
// (the payload behind BENCH_federation.json).
func FederationResult(ctx context.Context, spec FederationSpec) (*Table, *Table, *FederationReport) {
	evacT, evacR := FedEvacResult(ctx, spec)
	splitT, splitR := FedSplitResult(ctx, spec)
	return evacT, splitT, &FederationReport{Evac: evacR, Split: splitR}
}

// FedEvac is the bench-experiment entry point for the evacuation grid.
func FedEvac(ctx context.Context) *Table {
	t, _ := FedEvacResult(ctx, DefaultFederationSpec())
	return t
}

// FedSplit is the bench-experiment entry point for the split-brain timeline.
func FedSplit(ctx context.Context) *Table {
	t, _ := FedSplitResult(ctx, DefaultFederationSpec())
	return t
}

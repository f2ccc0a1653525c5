package federation

import (
	"fmt"
	"net/netip"
	"testing"
	"time"

	"canalmesh/internal/cloud"
	"canalmesh/internal/gateway"
	"canalmesh/internal/l7"
	"canalmesh/internal/netmodel"
	"canalmesh/internal/sim"
	"canalmesh/internal/trace"
)

// testMesh is a ready-to-drive federation: n regions of 4 backends x 2
// replicas each (2 AZs), one service registered everywhere, all pairs
// peered. Start is NOT called, so tests control the heartbeat lifetime.
type testMesh struct {
	s    *sim.Sim
	mesh *Mesh
	svc  *Service
}

func newTestMesh(t *testing.T, cfg Config, regions int) *testMesh {
	t.Helper()
	s := sim.New(7)
	cfg.Sim = s
	m := New(cfg)
	for i := 0; i < regions; i++ {
		name := fmt.Sprintf("region-%d", i+1)
		cr := cloud.NewRegion(s, name, "az1", "az2")
		gw := gateway.New(gateway.Config{
			Sim: s, Costs: netmodel.Default(),
			ShardSize: 4, Seed: 7,
		})
		for j := 0; j < 4; j++ {
			az := cr.AZ([]string{"az1", "az2"}[j%2])
			if _, err := gw.AddBackend(az, 2, 2, false); err != nil {
				t.Fatal(err)
			}
		}
		m.AddRegion(cr, gw)
	}
	svc, err := m.AddService("t1", "api", 100, netip.MustParseAddr("10.0.0.10"), 80, false, l7.ServiceConfig{DefaultSubset: "v1"})
	if err != nil {
		t.Fatal(err)
	}
	m.PeerAll()
	return &testMesh{s: s, mesh: m, svc: svc}
}

// start runs the heartbeat loop until the given horizon.
func (tm *testMesh) start(until time.Duration) {
	end := until
	tm.mesh.Start(func() bool { return tm.s.Now() >= end })
}

// dispatchAt schedules one request into region `from` at time `at` and
// funnels the result into the provided status counter map.
func (tm *testMesh) dispatchAt(from string, at time.Duration, seq int, tr *trace.Trace, counts map[int]int, lats *[]time.Duration) {
	tm.s.At(at, func() {
		flow := cloud.SessionKey{
			SrcIP: "10.9.0.1", SrcPort: uint16(seq%60000 + 1),
			DstIP: "10.0.0.10", DstPort: 80, Proto: 6,
		}
		req := l7.Request{Method: "GET", Path: "/", BodyBytes: 1024}
		tm.mesh.Dispatch(from, tm.svc, "az1", flow, req, 1, tr, func(lat time.Duration, status int) {
			counts[status]++
			if lats != nil {
				*lats = append(*lats, lat)
			}
		})
	})
}

func TestPeeringEstablishes(t *testing.T) {
	tm := newTestMesh(t, Config{}, 2)
	tm.start(5 * time.Second)
	tm.s.RunUntil(5 * time.Second)
	tm.s.Run()

	p := tm.mesh.Peering("region-1", "region-2")
	if p == nil {
		t.Fatal("no peering")
	}
	if p.State() != StateActive {
		t.Fatalf("state = %v, want active", p.State())
	}
	if p.EstablishedAt <= 0 {
		t.Fatalf("EstablishedAt = %v, want > 0", p.EstablishedAt)
	}
	for _, region := range []string{"region-1", "region-2"} {
		sess := p.SessionTo(region)
		if sess.Acked() == 0 {
			t.Fatalf("session into %s never acked", region)
		}
		if sess.Resyncs != 1 {
			t.Fatalf("session into %s: %d resyncs, want exactly the establish bootstrap", region, sess.Resyncs)
		}
	}
	// Each import view sees the peer's 4 alive backends.
	if n := tm.mesh.ImportedEndpoints("region-1", "region-2", tm.svc); n != 4 {
		t.Fatalf("region-1 imports %d endpoints from region-2, want 4", n)
	}
}

func TestSteadyStateCostsNoBytes(t *testing.T) {
	tm := newTestMesh(t, Config{}, 2)
	tm.start(30 * time.Second)
	tm.s.RunUntil(30 * time.Second)
	tm.s.Run()

	p := tm.mesh.Peering("region-1", "region-2")
	d := p.DistributorTo("region-2")
	// Establish publishes version 1; an unchanged export set must never
	// publish again, no matter how many heartbeats pass.
	if v := d.Version(); v != 1 {
		t.Fatalf("distributor advanced to version %d on an unchanged export set", v)
	}
}

func TestLocalityPreferred(t *testing.T) {
	tm := newTestMesh(t, Config{}, 2)
	tm.start(10 * time.Second)
	counts := map[int]int{}
	for i := 0; i < 50; i++ {
		tm.dispatchAt("region-1", 3*time.Second+time.Duration(i)*50*time.Millisecond, i, nil, counts, nil)
	}
	tm.s.RunUntil(10 * time.Second)
	tm.s.Run()

	r1 := tm.mesh.Region("region-1").Stats()
	if r1.Local != 50 || r1.Spilled != 0 {
		t.Fatalf("healthy region routed %+v, want all 50 local", r1)
	}
	if counts[200] != 50 {
		t.Fatalf("status counts %v, want 50x 200", counts)
	}
}

func TestSpilloverOnRegionEvacuation(t *testing.T) {
	tm := newTestMesh(t, Config{}, 2)
	tm.start(20 * time.Second)
	tm.s.At(5*time.Second, func() { tm.mesh.Region("region-1").Cloud().FailRegion() })
	counts := map[int]int{}
	var lats []time.Duration
	// Offer load well after the evacuation has propagated over a heartbeat.
	for i := 0; i < 40; i++ {
		tm.dispatchAt("region-1", 8*time.Second+time.Duration(i)*50*time.Millisecond, i, nil, counts, &lats)
	}
	tm.s.RunUntil(20 * time.Second)
	tm.s.Run()

	r1 := tm.mesh.Region("region-1").Stats()
	if r1.Spilled != 40 {
		t.Fatalf("stats %+v, want all 40 spilled", r1)
	}
	if counts[200] != 40 {
		t.Fatalf("status counts %v, want 40x 200 served by the peer", counts)
	}
	// Every spilled request paid at least the WAN round trip.
	wanRTT := netmodel.Default().CrossRegion
	for _, l := range lats {
		if l < wanRTT {
			t.Fatalf("spilled latency %v below the WAN round trip %v", l, wanRTT)
		}
	}
	// The exporter stopped exporting the dead region: the peer's view of
	// region-1 is empty.
	if n := tm.mesh.ImportedEndpoints("region-2", "region-1", tm.svc); n != 0 {
		t.Fatalf("region-2 still imports %d endpoints from the evacuated region-1", n)
	}
}

func TestPartialFailureSpillsFraction(t *testing.T) {
	tm := newTestMesh(t, Config{}, 2)
	tm.start(20 * time.Second)
	// Kill az1 (half the replicas) and one replica of each az2 backend:
	// health 2/8 < gate 0.5, so the excess share 1 - 0.25/0.5 = 1/2 of
	// requests should spill.
	tm.s.At(3*time.Second, func() {
		r := tm.mesh.Region("region-1")
		r.Cloud().AZ("az1").FailAZ()
		for _, b := range r.gw.Backends() {
			if b.AZ == "az2" {
				b.Replicas[0].VM.Fail()
			}
		}
	})
	counts := map[int]int{}
	for i := 0; i < 60; i++ {
		tm.dispatchAt("region-1", 6*time.Second+time.Duration(i)*50*time.Millisecond, i, nil, counts, nil)
	}
	tm.s.RunUntil(20 * time.Second)
	tm.s.Run()

	r1 := tm.mesh.Region("region-1").Stats()
	if r1.Spilled != 30 || r1.Local != 30 {
		t.Fatalf("stats %+v, want exactly 1/2 of 60 spilled", r1)
	}
	if counts[200] != 60 {
		t.Fatalf("status counts %v, want all served", counts)
	}
}

func TestSpilloverTraceAttributesWAN(t *testing.T) {
	s := sim.New(7)
	tracer := trace.New(trace.Config{Seed: 7, Clock: s.Now})
	tm := &testMesh{s: s}
	cfg := Config{Sim: s, Tracer: tracer}
	m := New(cfg)
	for i := 0; i < 2; i++ {
		name := fmt.Sprintf("region-%d", i+1)
		cr := cloud.NewRegion(s, name, "az1", "az2")
		gw := gateway.New(gateway.Config{Sim: s, Costs: netmodel.Default(), ShardSize: 4, Seed: 7})
		for j := 0; j < 4; j++ {
			az := cr.AZ([]string{"az1", "az2"}[j%2])
			if _, err := gw.AddBackend(az, 2, 2, false); err != nil {
				t.Fatal(err)
			}
		}
		m.AddRegion(cr, gw)
	}
	svc, err := m.AddService("t1", "api", 100, netip.MustParseAddr("10.0.0.10"), 80, false, l7.ServiceConfig{DefaultSubset: "v1"})
	if err != nil {
		t.Fatal(err)
	}
	tm.mesh, tm.svc = m, svc
	m.PeerAll()
	tm.start(20 * time.Second)
	s.At(4*time.Second, func() { m.Region("region-1").Cloud().FailRegion() })

	var spilled, local *trace.Trace
	s.At(8*time.Second, func() {
		spilled = tracer.Start("canal", "GET /")
		req := l7.Request{Method: "GET", Path: "/", BodyBytes: 1024}
		m.Dispatch("region-1", svc, "az1", cloud.SessionKey{SrcIP: "10.9.0.1", SrcPort: 1, DstIP: "10.0.0.10", DstPort: 80, Proto: 6},
			req, 1, spilled, func(lat time.Duration, status int) {
				tracer.Finish(spilled, status)
			})
		// The traceparent rides the dispatch's copy: the caller's request
		// is left as it was.
		if req.Headers != nil {
			t.Errorf("spill wrote headers onto the caller's request: %v", req.Headers)
		}
	})
	s.At(8*time.Second, func() {
		local = tracer.Start("canal", "GET /")
		m.Dispatch("region-2", svc, "az1", cloud.SessionKey{SrcIP: "10.9.0.2", SrcPort: 2, DstIP: "10.0.0.10", DstPort: 80, Proto: 6},
			l7.Request{Method: "GET", Path: "/", BodyBytes: 1024}, 1, local, func(lat time.Duration, status int) {
				tracer.Finish(local, status)
			})
	})
	s.RunUntil(20 * time.Second)
	s.Run()

	// The spilled trace carries wan hops whose WAN segments sum to the
	// round trip, and the hop sum reconciles exactly with the end-to-end.
	var wan time.Duration
	var hopSum time.Duration
	for _, h := range spilled.Hops() {
		wan += h.WAN
		hopSum += h.Net + h.Queue + h.CPU + h.WAN
	}
	if want := netmodel.Default().CrossRegion; wan != want {
		t.Fatalf("WAN attribution %v, want the full round trip %v", wan, want)
	}
	if hopSum != spilled.Total() {
		t.Fatalf("hop sum %v != end-to-end %v", hopSum, spilled.Total())
	}
	// The propagated context round-tripped the peering hop intact: the peer
	// joins its hops to the trace only when the traceparent it received
	// names this trace, its root span and the sampled flag.
	joined := false
	for _, h := range spilled.Hops() {
		joined = joined || h.Name == "gateway@region-2"
	}
	if !joined {
		t.Fatalf("peer did not join the spilled trace; hops %v", spilled.Hops())
	}
	// A local serve attributes zero WAN.
	for _, h := range local.Hops() {
		if h.WAN != 0 {
			t.Fatalf("local trace has WAN segment %v on hop %s", h.WAN, h.Name)
		}
	}
	// The analyzer separates the WAN share.
	b := trace.Analyze([]*trace.Trace{spilled})
	if b.WANShare() <= 0 {
		t.Fatal("Breakdown.WANShare is zero for a spilled trace")
	}
	if b.HopSum() != b.MeanTotal() {
		t.Fatalf("breakdown hop sum %v != mean total %v", b.HopSum(), b.MeanTotal())
	}
}

func TestSplitBrainWindowAndDetection(t *testing.T) {
	tm := newTestMesh(t, Config{}, 2)
	tm.start(30 * time.Second)
	// Evacuate region-1 so its traffic wants to spill, then cut the link.
	tm.s.At(3*time.Second, func() { tm.mesh.Region("region-1").Cloud().FailRegion() })
	tm.s.At(6*time.Second, func() {
		if err := tm.mesh.Partition("region-1", "region-2"); err != nil {
			t.Error(err)
		}
	})
	countsWindow := map[int]int{}
	countsAfter := map[int]int{}
	// During the undetected window (partition at 6s, detection at ~9s):
	// spills are blackholed.
	for i := 0; i < 10; i++ {
		tm.dispatchAt("region-1", 6500*time.Millisecond+time.Duration(i)*100*time.Millisecond, i, nil, countsWindow, nil)
	}
	// Well after detection: the peering is down, nothing is routable.
	for i := 0; i < 10; i++ {
		tm.dispatchAt("region-1", 15*time.Second+time.Duration(i)*100*time.Millisecond, 100+i, nil, countsAfter, nil)
	}
	tm.s.RunUntil(30 * time.Second)
	tm.s.Run()

	p := tm.mesh.Peering("region-1", "region-2")
	if p.State() != StateDown {
		t.Fatalf("peering state %v, want down", p.State())
	}
	if p.Epoch() != 1 {
		t.Fatalf("epoch %d, want 1 disconnect", p.Epoch())
	}
	st := tm.mesh.Region("region-1").Stats()
	if st.SpillLost != 10 {
		t.Fatalf("stats %+v, want the 10 window requests blackholed", st)
	}
	if st.Unserved != 10 {
		t.Fatalf("stats %+v, want the 10 post-detection requests unserved", st)
	}
	if countsWindow[200] != 0 || countsAfter[200] != 0 {
		t.Fatalf("window %v after %v: nothing should succeed", countsWindow, countsAfter)
	}
}

func TestDispatchUnknownRegion(t *testing.T) {
	tm := newTestMesh(t, Config{}, 2)
	called := 0
	tm.mesh.Dispatch("nope", tm.svc, "az1", cloud.SessionKey{}, l7.Request{Method: "GET", Path: "/"}, 1, nil,
		func(_ time.Duration, status int) {
			called++
			if status != l7.StatusUnavailable {
				t.Fatalf("status %d, want %d", status, l7.StatusUnavailable)
			}
		})
	if called != 1 {
		t.Fatal("done not called synchronously for unknown region")
	}
}

package scaling

import (
	"net/netip"
	"testing"
	"time"

	"canalmesh/internal/cloud"
	"canalmesh/internal/gateway"
	"canalmesh/internal/l7"
	"canalmesh/internal/netmodel"
	"canalmesh/internal/sim"
	"canalmesh/internal/telemetry"
	"canalmesh/internal/units"
	"canalmesh/internal/workload"
)

func setup(t *testing.T) (*sim.Sim, *cloud.Region, *gateway.Gateway) {
	t.Helper()
	s := sim.New(11)
	region := cloud.NewRegion(s, "r1", "az1", "az2")
	g := gateway.New(gateway.Config{Sim: s, Costs: netmodel.Default(), ShardSize: 2, Seed: 11})
	for i := 0; i < 6; i++ {
		az := region.AZ("az1")
		if i >= 4 {
			az = region.AZ("az2")
		}
		if _, err := g.AddBackend(az, 2, 2, false); err != nil {
			t.Fatal(err)
		}
	}
	return s, region, g
}

func addService(t *testing.T, g *gateway.Gateway, name, ip string) *gateway.ServiceState {
	t.Helper()
	st, err := g.RegisterService("t1", name, 100, netip.MustParseAddr(ip), 80, false, l7.ServiceConfig{DefaultSubset: "v1"})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// fabricate appends synthetic aligned samples: utilization follows the
// culprit's RPS trend; innocents stay flat.
func fabricate(b *gateway.Backend, culprit, innocent uint64) {
	for i := 0; i <= 30; i++ {
		at := time.Duration(i) * time.Second
		rising := float64(i) * 10
		b.Util.Append(at, 0.2+float64(i)*0.02)
		if s := b.RPSSeries[culprit]; s != nil {
			s.Append(at, 100+rising)
		}
		if s := b.RPSSeries[innocent]; s != nil {
			s.Append(at, 100)
		}
	}
}

func TestRootCauseFindsCulprit(t *testing.T) {
	_, _, g := setup(t)
	a := addService(t, g, "culprit", "192.168.0.1")
	b := addService(t, g, "innocent", "192.168.0.2")
	// Find a backend hosting both.
	var shared *gateway.Backend
	for _, bk := range g.Backends() {
		if bk.HostsService(a.ID) && bk.HostsService(b.ID) {
			shared = bk
			break
		}
	}
	if shared == nil {
		shared = a.Backends[0]
	}
	fabricate(shared, a.ID, b.ID)
	id, corr, ok := RootCause(shared, 0, 31*time.Second, 0.6)
	if !ok {
		t.Fatalf("RCA failed (corr=%v)", corr)
	}
	if id != a.ID {
		t.Errorf("RCA picked %d, want culprit %d", id, a.ID)
	}
}

func TestRootCauseRefusesWeakCorrelation(t *testing.T) {
	_, _, g := setup(t)
	a := addService(t, g, "flat", "192.168.0.1")
	bk := a.Backends[0]
	for i := 0; i <= 30; i++ {
		at := time.Duration(i) * time.Second
		bk.Util.Append(at, 0.2+float64(i)*0.02) // rising util
		bk.RPSSeries[a.ID].Append(at, 100)      // flat traffic
	}
	if _, _, ok := RootCause(bk, 0, 31*time.Second, 0.6); ok {
		t.Error("flat traffic must not be blamed for rising utilization")
	}
}

func TestRootCauseTooFewSamples(t *testing.T) {
	_, _, g := setup(t)
	a := addService(t, g, "s", "192.168.0.1")
	if _, _, ok := RootCause(a.Backends[0], 0, time.Second, 0.6); ok {
		t.Error("insufficient samples should fail")
	}
}

func TestReuseExtendsWithinSeconds(t *testing.T) {
	s, region, g := setup(t)
	a := addService(t, g, "hot", "192.168.0.1")
	p := NewPlanner(s, g, region)
	overloaded := a.Backends[0]
	before := len(a.Backends)
	var got Event
	s.At(0, func() {
		if _, err := p.ScaleService(a.ID, overloaded, 0, func(e Event) { got = e }); err != nil {
			t.Error(err)
		}
	})
	s.Run()
	if got.Strategy != Reuse {
		t.Fatalf("strategy = %v, want reuse (idle backends exist)", got.Strategy)
	}
	if got.FinishAt > 2*time.Minute {
		t.Errorf("reuse took %v, want well under 2min", got.FinishAt)
	}
	if len(a.Backends) != before+1 {
		t.Errorf("backends = %d, want %d", len(a.Backends), before+1)
	}
	if len(p.Events()) != 1 {
		t.Error("event should be recorded")
	}
}

func TestNewWhenNoReuseTarget(t *testing.T) {
	s, region, g := setup(t)
	a := addService(t, g, "hot", "192.168.0.1")
	// Saturate every other az1 backend so none qualifies for reuse, and
	// extend the service everywhere it could fit.
	overloaded := a.Backends[0]
	for _, b := range g.Backends() {
		if b.AZ == overloaded.AZ && !b.HostsService(a.ID) {
			if err := g.ExtendService(a.ID, b); err != nil {
				t.Fatal(err)
			}
		}
	}
	p := NewPlanner(s, g, region)
	nBackends := len(g.Backends())
	var got Event
	s.At(0, func() {
		if _, err := p.ScaleService(a.ID, overloaded, 0, func(e Event) { got = e }); err != nil {
			t.Error(err)
		}
	})
	s.Run()
	if got.Strategy != New {
		t.Fatalf("strategy = %v, want new", got.Strategy)
	}
	if got.FinishAt < 5*time.Minute {
		t.Errorf("new finished in %v; provisioning takes minutes", got.FinishAt)
	}
	if len(g.Backends()) != nBackends+1 {
		t.Error("a new backend should exist")
	}
}

func TestReuseFasterThanNew(t *testing.T) {
	// Fig 17's separation: Reuse P50 ~tens of seconds, New P50 ~17 min.
	s, region, g := setup(t)
	p := NewPlanner(s, g, region)
	var reuse, newer telemetry.Sample
	for i := 0; i < 200; i++ {
		reuse.ObserveDuration(p.reuseDuration())
		newer.ObserveDuration(p.newDuration())
	}
	r50 := units.Seconds(reuse.Percentile(50))
	n50 := units.Seconds(newer.Percentile(50))
	if r50 > 2*time.Minute {
		t.Errorf("reuse P50 = %v", r50)
	}
	if n50 < 10*time.Minute || n50 > 25*time.Minute {
		t.Errorf("new P50 = %v, want ~17min", n50)
	}
	if float64(n50)/float64(r50) < 10 {
		t.Errorf("new/reuse P50 ratio %.1f, want >= 10", float64(n50)/float64(r50))
	}
}

func TestHandleAlertEndToEnd(t *testing.T) {
	// Integration: drive real load through the gateway so sampling fills
	// the series, then let the planner find and fix the hot service.
	s, region, g := setup(t)
	hot := addService(t, g, "hot", "192.168.0.1")
	addService(t, g, "cold", "192.168.0.2")
	g.StartSampling(func() bool { return s.Now() > 50*time.Second })

	overloaded := hot.Backends[0]
	// Ramp the hot service onto its first backend via dispatch (the
	// crowd's ramp down starts after the run ends).
	workload.OpenLoop(s, workload.FlashCrowd(100, 3000, 5*time.Second, 20*time.Second, 20*time.Second), 50*time.Millisecond, 40*time.Second, func() {
		g.Dispatch(hot.ID, overloaded.AZ, cloud.SessionKey{SrcIP: "c", SrcPort: uint16(s.Now() / time.Millisecond), DstIP: "d", DstPort: 80, Proto: 6},
			l7.Request{Method: "GET", Path: "/", BodyBytes: 1024}, 1, func(time.Duration, int) {})
	})

	p := NewPlanner(s, g, region)
	var ev *Event
	s.At(35*time.Second, func() {
		e, err := p.HandleAlert(overloaded, 30*time.Second, nil)
		if err != nil {
			t.Errorf("HandleAlert: %v", err)
			return
		}
		ev = e
	})
	s.Run()
	if ev == nil {
		t.Fatal("no scaling event")
	}
	if ev.Service != hot.ID {
		t.Errorf("scaled service %d, want hot %d", ev.Service, hot.ID)
	}
}

func TestScaleUnknownService(t *testing.T) {
	s, region, g := setup(t)
	a := addService(t, g, "a", "192.168.0.1")
	p := NewPlanner(s, g, region)
	if _, err := p.ScaleService(9999, a.Backends[0], 0, nil); err == nil {
		t.Error("unknown service should error")
	}
}

func TestStrategyString(t *testing.T) {
	if Reuse.String() != "reuse" || New.String() != "new" {
		t.Error("strategy names")
	}
}

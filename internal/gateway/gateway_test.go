package gateway

import (
	"fmt"
	"net/netip"
	"testing"
	"time"

	"canalmesh/internal/cloud"
	"canalmesh/internal/l4"
	"canalmesh/internal/l7"
	"canalmesh/internal/netmodel"
	"canalmesh/internal/sim"
)

// testGateway builds a gateway with 4 regular backends (2 per AZ over 2
// AZs), each 2 replicas x 2 cores, plus a sandbox.
func testGateway(t *testing.T) (*sim.Sim, *cloud.Region, *Gateway) {
	t.Helper()
	s := sim.New(7)
	region := cloud.NewRegion(s, "r1", "az1", "az2")
	g := New(Config{Sim: s, Costs: netmodel.Default(), ShardSize: 3, Seed: 7})
	for i := 0; i < 4; i++ {
		az := region.AZ("az1")
		if i >= 2 {
			az = region.AZ("az2")
		}
		if _, err := g.AddBackend(az, 2, 2, false); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := g.AddBackend(region.AZ("az1"), 2, 2, true); err != nil {
		t.Fatal(err)
	}
	return s, region, g
}

func register(t *testing.T, g *Gateway, tenant, name string, vni uint32, ip string) *ServiceState {
	t.Helper()
	st, err := g.RegisterService(tenant, name, vni, netip.MustParseAddr(ip), 80, false,
		l7.ServiceConfig{DefaultSubset: "v1"})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func flow(p uint16) cloud.SessionKey {
	return cloud.SessionKey{SrcIP: "10.0.0.1", SrcPort: p, DstIP: "10.1.0.1", DstPort: 80, Proto: 6}
}

// resolve is the backend a flow from clientAZ resolves to: the pick
// Dispatch makes.
func resolve(g *Gateway, id uint64, clientAZ string, k cloud.SessionKey) (*Backend, error) {
	return g.resolveBackend(g.services[id], clientAZ, l4.Hash5Tuple(k))
}

// failBackend fails every replica VM of a backend.
func failBackend(b *Backend) {
	for _, r := range b.Replicas {
		r.VM.Fail()
	}
}

func gwReq() l7.Request {
	return l7.Request{Tenant: "t1", SourceService: "client", Method: "GET", Path: "/", BodyBytes: 1024}
}

func TestRegisterServiceAssignsShardAcrossBackends(t *testing.T) {
	_, _, g := testGateway(t)
	st := register(t, g, "t1", "web", 100, "192.168.0.10")
	if len(st.Backends) != 3 {
		t.Fatalf("backends = %d, want shard size 3", len(st.Backends))
	}
	for _, b := range st.Backends {
		if !b.HostsService(st.ID) {
			t.Error("backend should host the service")
		}
		if b.Sandbox {
			t.Error("regular shard must not use sandboxes")
		}
	}
}

func TestOverlappingTenantAddressesGetDistinctServices(t *testing.T) {
	_, _, g := testGateway(t)
	a := register(t, g, "t1", "web", 100, "192.168.0.10")
	b := register(t, g, "t2", "web", 200, "192.168.0.10") // same inner IP!
	if a.ID == b.ID {
		t.Fatal("overlapping VPC addresses must map to distinct service IDs")
	}
	if g.Service(b.ID) != b || b.Tenant != "t2" {
		t.Error("Service lookup")
	}
}

func TestDuplicateRegistrationRejected(t *testing.T) {
	_, _, g := testGateway(t)
	register(t, g, "t1", "web", 100, "192.168.0.10")
	if _, err := g.RegisterService("t1", "web", 100, netip.MustParseAddr("192.168.0.10"), 80, false,
		l7.ServiceConfig{DefaultSubset: "v1"}); err == nil {
		t.Error("duplicate registration should error")
	}
}

func TestDispatchServesAndRecordsLatency(t *testing.T) {
	s, _, g := testGateway(t)
	st := register(t, g, "t1", "web", 100, "192.168.0.10")
	var gotStatus int
	var gotLat time.Duration
	s.At(0, func() {
		g.Dispatch(st.ID, "az1", flow(1), gwReq(), 1, func(lat time.Duration, status int) {
			gotStatus, gotLat = status, lat
		})
	})
	s.Run()
	if gotStatus != l7.StatusOK {
		t.Fatalf("status = %d", gotStatus)
	}
	if gotLat <= 0 || gotLat != s.Now() {
		t.Errorf("latency = %v, want the request's whole time in the gateway (%v)", gotLat, s.Now())
	}
}

func TestDNSPrefersLocalAZ(t *testing.T) {
	_, _, g := testGateway(t)
	st := register(t, g, "t1", "web", 100, "192.168.0.10")
	// The shard spans both AZs (3 of 4 backends); requests from az1 must
	// resolve to an az1 backend when one is alive.
	hasAZ1 := false
	for _, b := range st.Backends {
		if b.AZ == "az1" {
			hasAZ1 = true
		}
	}
	if !hasAZ1 {
		t.Skip("shard draw has no az1 backend; seed-dependent")
	}
	for p := uint16(1); p <= 50; p++ {
		b, err := resolve(g, st.ID, "az1", flow(p))
		if err != nil {
			t.Fatal(err)
		}
		if b.AZ != "az1" {
			t.Fatalf("resolved to %s in %s, want local az1", b.ID, b.AZ)
		}
	}
}

func TestHierarchicalFailover(t *testing.T) {
	s, region, g := testGateway(t)
	st := register(t, g, "t1", "web", 100, "192.168.0.10")

	// Level 1: one replica fails -> backend still alive, dispatch works.
	first := st.Backends[0]
	first.Replicas[0].VM.Fail()
	if !first.Alive() {
		t.Fatal("backend with one alive replica should be alive")
	}
	ok := 0
	s.After(0, func() {
		g.Dispatch(st.ID, first.AZ, flow(1), gwReq(), 1, func(_ time.Duration, status int) {
			if status == l7.StatusOK {
				ok++
			}
		})
	})
	s.Run()
	if ok != 1 {
		t.Fatal("dispatch should survive replica failure")
	}

	// Level 2: whole backend fails -> other backends serve.
	failBackend(first)
	if b, err := resolve(g, st.ID, first.AZ, flow(2)); err != nil || b == first {
		t.Fatalf("resolution after backend failure: %v %v", b, err)
	}

	// Level 3: an entire AZ fails -> cross-AZ backends serve.
	region.AZ("az1").FailAZ()
	b, err := resolve(g, st.ID, "az1", flow(3))
	if err != nil {
		t.Fatalf("cross-AZ failover failed: %v", err)
	}
	if b.AZ != "az2" {
		t.Errorf("resolved to %s, want az2 backend", b.AZ)
	}

	// Everything down -> unavailable.
	region.AZ("az2").FailAZ()
	if _, err := resolve(g, st.ID, "az1", flow(4)); err == nil {
		t.Error("total failure should be unavailable")
	}

	// Recovery restores service.
	region.AZ("az1").RecoverAZ()
	if _, err := resolve(g, st.ID, "az1", flow(5)); err != nil {
		t.Errorf("recovery failed: %v", err)
	}

	// Under load: 100 requests/s enter az1 for 20 s while az1 is down from
	// 5 s to 15 s. Cross-AZ failover serves every one of them.
	region.AZ("az2").RecoverAZ()
	start := s.Now()
	s.At(start+5*time.Second, func() { region.AZ("az1").FailAZ() })
	s.At(start+15*time.Second, func() { region.AZ("az1").RecoverAZ() })
	byStatus := map[int]int{}
	port := uint16(100)
	s.Every(10*time.Millisecond, func() bool {
		if s.Now()-start >= 20*time.Second {
			return false
		}
		port++
		g.Dispatch(st.ID, "az1", flow(port), gwReq(), 1, func(_ time.Duration, status int) { byStatus[status]++ })
		return true
	})
	s.Run()
	if byStatus[l7.StatusOK] < 1990 || len(byStatus) != 1 {
		t.Errorf("statuses through an AZ outage under load = %v, want ~2000 x 200 and nothing else", byStatus)
	}
}

func TestShuffleShardingIsolation(t *testing.T) {
	_, _, g := testGateway(t)
	var services []*ServiceState
	for i := 0; i < 8; i++ {
		services = append(services, register(t, g, "t1", fmt.Sprintf("svc-%d", i), 100, fmt.Sprintf("192.168.1.%d", i+1)))
	}
	victim := services[0]
	for _, b := range victim.Backends {
		failBackend(b)
	}
	// The victim is down...
	if _, err := resolve(g, victim.ID, "az1", flow(1)); err == nil {
		t.Error("victim should be unavailable")
	}
	// ...but no other service is fully down (distinct combinations).
	for _, other := range services[1:] {
		if _, err := resolve(g, other.ID, "az1", flow(1)); err != nil {
			t.Errorf("service %s fully down with the victim: %v", other.FullName(), err)
		}
	}
}

func TestThrottleAtGateway(t *testing.T) {
	s, _, g := testGateway(t)
	st := register(t, g, "t1", "web", 100, "192.168.0.10")
	if err := g.Throttle(st.ID, 5, 5); err != nil {
		t.Fatal(err)
	}
	okN, throttledN := 0, 0
	s.At(0, func() {
		for i := 0; i < 20; i++ {
			g.Dispatch(st.ID, "az1", flow(uint16(i)), gwReq(), 1, func(_ time.Duration, status int) {
				switch status {
				case l7.StatusOK:
					okN++
				case l7.StatusTooManyRequests:
					throttledN++
				}
			})
		}
	})
	s.Run()
	if okN != 5 || throttledN != 15 {
		t.Errorf("ok=%d throttled=%d, want 5/15", okN, throttledN)
	}
	if st.Errors.Value() != 15 {
		t.Errorf("errors = %v", st.Errors.Value())
	}
	// Remove the throttle.
	if err := g.Throttle(st.ID, 0, 0); err != nil {
		t.Fatal(err)
	}
	s.After(time.Second, func() {
		g.Dispatch(st.ID, "az1", flow(99), gwReq(), 1, func(_ time.Duration, status int) {
			if status != l7.StatusOK {
				t.Errorf("unthrottled dispatch status = %d", status)
			}
		})
	})
	s.Run()
	if err := g.Throttle(999, 1, 1); err == nil {
		t.Error("unknown service throttle should error")
	}
}

func TestSamplingRecordsRPSAndWaterLevel(t *testing.T) {
	s, _, g := testGateway(t)
	st := register(t, g, "t1", "web", 100, "192.168.0.10")
	g.StartSampling(func() bool { return s.Now() > 5*time.Second })
	// 100 dispatches per second for 3 seconds.
	for sec := 0; sec < 3; sec++ {
		at := time.Duration(sec) * time.Second
		for i := 0; i < 100; i++ {
			i := i
			s.At(at+time.Duration(i)*time.Millisecond, func() {
				g.Dispatch(st.ID, "az1", flow(uint16(i)), gwReq(), 1, func(time.Duration, int) {})
			})
		}
	}
	s.Run()
	sampled := false
	for _, b := range st.Backends {
		series := b.RPSSeries[st.ID]
		if series == nil {
			continue
		}
		for _, p := range series.Points() {
			if p.V > 0 {
				sampled = true
			}
		}
		if b.Util.Len() == 0 {
			t.Error("water level should be sampled")
		}
	}
	if !sampled {
		t.Error("per-service RPS should be sampled on its backends")
	}
}

func TestExtendService(t *testing.T) {
	_, _, g := testGateway(t)
	st := register(t, g, "t1", "web", 100, "192.168.0.10")
	var outside *Backend
	for _, b := range g.Backends() {
		if !b.HostsService(st.ID) {
			outside = b
			break
		}
	}
	if outside == nil {
		t.Skip("shard covers all backends")
	}
	if err := g.ExtendService(st.ID, outside); err != nil {
		t.Fatal(err)
	}
	if !outside.HostsService(st.ID) || len(st.Backends) != 4 {
		t.Error("service should extend to the new backend")
	}
	if err := g.ExtendService(999, outside); err == nil {
		t.Error("unknown service")
	}
}

func TestDispatchUnknownService(t *testing.T) {
	s, _, g := testGateway(t)
	status := 0
	s.At(0, func() {
		g.Dispatch(42, "az1", flow(1), gwReq(), 1, func(_ time.Duration, st int) { status = st })
	})
	s.Run()
	if status != l7.StatusUnavailable {
		t.Errorf("status = %d", status)
	}
}

func TestRegisterWithoutBackends(t *testing.T) {
	s := sim.New(1)
	g := New(Config{Sim: s, Costs: netmodel.Default()})
	if _, err := g.RegisterService("t1", "web", 1, netip.MustParseAddr("10.0.0.1"), 80, false, l7.ServiceConfig{}); err == nil {
		t.Error("registration without backends should fail")
	}
}

func TestQueryOfDeathCostMultiplier(t *testing.T) {
	s, _, g := testGateway(t)
	st := register(t, g, "t1", "web", 100, "192.168.0.10")
	var normal, poisoned time.Duration
	s.At(0, func() {
		g.Dispatch(st.ID, "az1", flow(1), gwReq(), 1, func(lat time.Duration, _ int) { normal = lat })
	})
	s.At(time.Second, func() {
		g.Dispatch(st.ID, "az1", flow(2), gwReq(), 100, func(lat time.Duration, _ int) { poisoned = lat })
	})
	s.Run()
	if poisoned < 50*normal {
		t.Errorf("query of death should be ~100x: normal=%v poisoned=%v", normal, poisoned)
	}
}

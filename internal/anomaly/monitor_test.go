package anomaly

import (
	"net/netip"
	"testing"
	"time"

	"canalmesh/internal/cloud"
	"canalmesh/internal/gateway"
	"canalmesh/internal/l7"
	"canalmesh/internal/netmodel"
	"canalmesh/internal/scaling"
	"canalmesh/internal/sim"
	"canalmesh/internal/workload"
)

// monitorRig assembles sim + region + gateway (small backends so overload is
// reachable) + planner + monitor.
func monitorRig(t *testing.T) (*sim.Sim, *cloud.Region, *gateway.Gateway, *scaling.Planner, *Monitor, *gateway.ServiceState) {
	t.Helper()
	s := sim.New(21)
	region := cloud.NewRegion(s, "r1", "az1", "az2")
	g := gateway.New(gateway.Config{Sim: s, Costs: netmodel.Default(), ShardSize: 1, Seed: 21})
	for i := 0; i < 6; i++ {
		az := region.AZ("az1")
		if i >= 4 {
			az = region.AZ("az2")
		}
		if _, err := g.AddBackend(az, 1, 2, false); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := g.AddBackend(region.AZ("az1"), 1, 2, true); err != nil {
		t.Fatal(err)
	}
	svc, err := g.RegisterService("t1", "web", 100, netip.MustParseAddr("192.168.0.1"), 80, false,
		l7.ServiceConfig{DefaultSubset: "v1"})
	if err != nil {
		t.Fatal(err)
	}
	planner := scaling.NewPlanner(s, g, region)
	m := NewMonitor(s, g, planner)
	m.SessionCapacity = 10_000
	return s, region, g, planner, m, svc
}

// drive sends load for the service through its first backend's AZ.
func drive(s *sim.Sim, g *gateway.Gateway, svc *gateway.ServiceState, rate workload.RateFunc, end time.Duration) {
	i := 0
	az := svc.Backends[0].AZ
	workload.OpenLoop(s, rate, 10*time.Millisecond, end, func() {
		i++
		flow := cloud.SessionKey{SrcIP: "10.0.0.9", SrcPort: uint16(i%60000 + 1), DstIP: "10.1.0.1", DstPort: 80, Proto: 6}
		g.Dispatch(svc.ID, az, flow, l7.Request{Method: "GET", Path: "/", BodyBytes: 1024}, 1, func(time.Duration, int) {})
	})
}

func TestMonitorScalesOnNormalGrowth(t *testing.T) {
	s, _, g, planner, m, svc := monitorRig(t)
	g.StartSampling(func() bool { return s.Now() > 70*time.Second })
	m.Start(func() bool { return s.Now() > 70*time.Second })
	// Ramp well past one 2-core backend's capacity; sessions grow with
	// traffic (growth matches RPS -> normal).
	drive(s, g, svc, workload.Ramp(500, 9000, 10*time.Second, 20*time.Second), 60*time.Second)
	s.Every(time.Second, func() bool {
		svc.Sessions = int(100 + s.Now().Seconds()*20)
		return s.Now() < 60*time.Second
	})
	s.Run()
	if len(planner.Events()) == 0 {
		t.Fatal("monitor should have triggered scaling")
	}
	found := false
	for _, a := range m.Actions() {
		if a.Action == ActionScale && a.Service == svc.ID {
			found = true
		}
		if a.Action == ActionLossyMigrate {
			t.Errorf("normal growth misclassified as attack: %s", a.Reason)
		}
	}
	if !found {
		t.Fatalf("no scale action recorded: %v", m.Actions())
	}
	if svc.Sandboxed {
		t.Error("normal growth must not sandbox the service")
	}
}

func TestMonitorLossyMigratesOnSessionFlood(t *testing.T) {
	s, _, g, _, m, svc := monitorRig(t)
	g.StartSampling(func() bool { return s.Now() > 50*time.Second })
	m.Start(func() bool { return s.Now() > 50*time.Second })
	// Steady modest traffic...
	drive(s, g, svc, workload.Constant(300), 40*time.Second)
	// ...while sessions explode far past the baseline (SYN flood).
	svc.Sessions = 200
	workload.SessionFlood(s, 800, time.Second, 30*time.Second, func() {
		if !svc.Sandboxed { // sandboxing cuts the flood off from the backends
			svc.Sessions++
		}
	})
	s.Run()
	migrated := false
	for _, a := range m.Actions() {
		if a.Action == ActionLossyMigrate && a.Service == svc.ID {
			migrated = true
		}
	}
	if !migrated {
		t.Fatalf("session flood should trigger lossy migration: %v", m.Actions())
	}
	if !svc.Sandboxed {
		t.Error("service should be in the sandbox")
	}
	if svc.Sessions != 0 {
		t.Error("lossy migration resets sessions")
	}
}

func TestMonitorThrottlesOnTenantOverload(t *testing.T) {
	s, _, g, _, m, svc := monitorRig(t)
	m.UserClusterUtil = func(tenant string) float64 {
		if tenant == "t1" && s.Now() > 15*time.Second {
			return 0.99 // the tenant's own cluster is drowning
		}
		return 0.3
	}
	g.StartSampling(func() bool { return s.Now() > 40*time.Second })
	m.Start(func() bool { return s.Now() > 40*time.Second })
	drive(s, g, svc, workload.Constant(500), 35*time.Second)
	s.Run()
	throttled := false
	for _, a := range m.Actions() {
		if a.Action == ActionThrottle && a.Service == svc.ID {
			throttled = true
		}
	}
	if !throttled {
		t.Fatalf("tenant overload should throttle: %v", m.Actions())
	}
	if svc.Throttle == nil {
		t.Error("gateway throttle should be installed")
	}
}

func TestMonitorQuietWhenNominal(t *testing.T) {
	s, _, g, _, m, svc := monitorRig(t)
	g.StartSampling(func() bool { return s.Now() > 30*time.Second })
	m.Start(func() bool { return s.Now() > 30*time.Second })
	drive(s, g, svc, workload.Constant(100), 25*time.Second)
	svc.Sessions = 150
	s.Run()
	if n := len(m.Actions()); n != 0 {
		t.Errorf("nominal load should trigger nothing, got %v", m.Actions())
	}
}

func TestMonitorCooldownLimitsActions(t *testing.T) {
	s, _, g, _, m, svc := monitorRig(t)
	m.Cooldown = 20 * time.Second
	g.StartSampling(func() bool { return s.Now() > 50*time.Second })
	m.Start(func() bool { return s.Now() > 50*time.Second })
	m.UserClusterUtil = func(string) float64 { return 0.99 } // always alarming
	drive(s, g, svc, workload.Constant(500), 45*time.Second)
	s.Run()
	// 45s of permanent alarm with a 20s cooldown: at most 3 actions.
	if n := len(m.Actions()); n == 0 || n > 3 {
		t.Errorf("cooldown should bound actions to 1-3, got %d", n)
	}
}

func TestMonitorIgnoresSandboxedServices(t *testing.T) {
	s, _, g, _, m, svc := monitorRig(t)
	if err := g.MigrateToSandbox(svc.ID, gateway.Lossless, nil); err != nil {
		t.Fatal(err)
	}
	g.StartSampling(func() bool { return s.Now() > 20*time.Second })
	m.Start(func() bool { return s.Now() > 20*time.Second })
	drive(s, g, svc, workload.Constant(2000), 15*time.Second)
	s.Run()
	for _, a := range m.Actions() {
		if a.Service == svc.ID {
			t.Errorf("sandboxed service must not be re-handled: %+v", a)
		}
	}
}

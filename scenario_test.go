package canal

import (
	"strings"
	"testing"
	"time"
)

func newScenario(t *testing.T, cfg ScenarioConfig) *Scenario {
	t.Helper()
	sc, err := NewScenario(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

func TestScenarioBasicTraffic(t *testing.T) {
	sc := newScenario(t, ScenarioConfig{Seed: 1})
	svc, err := sc.RegisterService("acme", "web", 100, "192.168.0.10", ServiceConfig{DefaultSubset: "v1"})
	if err != nil {
		t.Fatal(err)
	}
	stats := svc.Drive(Constant(200).For(10 * time.Second)) // no From: defaults to the first configured AZ
	sc.RunFor(12 * time.Second)
	if got := stats.Count(200); got < 1900 || got > 2100 {
		t.Errorf("successes = %d, want ~2000", got)
	}
	if stats.LatencyP(99) <= 0 || stats.LatencyP(99) > 10*time.Millisecond {
		t.Errorf("P99 = %v", stats.LatencyP(99))
	}
	if len(svc.Backends()) == 0 {
		t.Error("service should have backends")
	}
}

func TestScenarioOverlappingTenants(t *testing.T) {
	sc := newScenario(t, ScenarioConfig{Seed: 2})
	a, err := sc.RegisterService("t1", "web", 100, "192.168.0.10", ServiceConfig{DefaultSubset: "v1"})
	if err != nil {
		t.Fatal(err)
	}
	b, err := sc.RegisterService("t2", "web", 200, "192.168.0.10", ServiceConfig{DefaultSubset: "v1"})
	if err != nil {
		t.Fatal(err)
	}
	sa := a.Drive(Constant(100).From("az1").For(5 * time.Second))
	sb := b.Drive(Constant(100).From("az1").For(5 * time.Second))
	sc.RunFor(6 * time.Second)
	if sa.Count(200) == 0 || sb.Count(200) == 0 {
		t.Error("both tenants should be served despite identical addresses")
	}
}

func TestScenarioAZFailover(t *testing.T) {
	sc := newScenario(t, ScenarioConfig{Seed: 3})
	svc, err := sc.RegisterService("acme", "web", 100, "192.168.0.10", ServiceConfig{DefaultSubset: "v1"})
	if err != nil {
		t.Fatal(err)
	}
	stats := svc.Drive(Constant(200).From("az1").For(30 * time.Second))
	if err := sc.Inject(AZDown("az1"), 10*time.Second); err != nil {
		t.Fatal(err)
	}
	if err := sc.Inject(AZRecover("az1"), 20*time.Second); err != nil {
		t.Fatal(err)
	}
	sc.RunFor(32 * time.Second)
	total := stats.Count(200) + stats.Count(503)
	if total == 0 {
		t.Fatal("no traffic")
	}
	// Cross-AZ failover keeps the service up through the outage.
	if frac := float64(stats.Count(200)) / float64(total); frac < 0.99 {
		t.Errorf("success fraction %.3f; hierarchical failover should absorb the AZ outage", frac)
	}
	if err := sc.Inject(AZDown("nope"), 0); err == nil {
		t.Error("unknown AZ should error")
	}
	if err := sc.Inject(Fault{}, 0); err == nil {
		t.Error("empty fault should error")
	}
	if err := sc.Inject(RegionPartition("region-1", "region-2"), 0); err == nil {
		t.Error("partition in a single-region scenario should error")
	}
}

func TestScenarioThrottle(t *testing.T) {
	sc := newScenario(t, ScenarioConfig{Seed: 4})
	svc, err := sc.RegisterService("acme", "web", 100, "192.168.0.10", ServiceConfig{DefaultSubset: "v1"})
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.Throttle(50, 50); err != nil {
		t.Fatal(err)
	}
	stats := svc.Drive(Constant(500).From("az1").For(10 * time.Second))
	sc.RunFor(11 * time.Second)
	if stats.Count(429) == 0 {
		t.Error("throttle should reject excess traffic")
	}
	ok := stats.Count(200)
	if ok < 400 || ok > 700 {
		t.Errorf("admitted = %d, want ~500 (50 RPS x 10s + burst)", ok)
	}
}

func TestScenarioAutoScalesHotService(t *testing.T) {
	sc := newScenario(t, ScenarioConfig{Seed: 5, ReplicasPerBE: 1, Backends: 8})
	svc, err := sc.RegisterService("acme", "web", 100, "192.168.0.10", ServiceConfig{DefaultSubset: "v1"})
	if err != nil {
		t.Fatal(err)
	}
	// Surge past one backend's capacity; the built-in monitor + planner
	// should scale it.
	svc.Drive(Spike(300, 12000, 10*time.Second, 50*time.Second).From("az1").For(60 * time.Second))
	sc.RunFor(65 * time.Second)
	st := sc.Stats()
	if st.ScalingOps == 0 {
		t.Errorf("monitor should have scaled the hot service; interventions: %v", st.Interventions)
	}
	found := false
	for _, line := range st.Interventions {
		if strings.Contains(line, "scale") {
			found = true
		}
	}
	if !found {
		t.Errorf("expected a scale intervention, got %v", st.Interventions)
	}
	if svc.Sandboxed() {
		t.Error("normal growth must not sandbox")
	}
}

func TestScenarioAttackSandboxed(t *testing.T) {
	sc := newScenario(t, ScenarioConfig{Seed: 6})
	svc, err := sc.RegisterService("acme", "web", 100, "192.168.0.10", ServiceConfig{DefaultSubset: "v1"})
	if err != nil {
		t.Fatal(err)
	}
	svc.Drive(Constant(200).From("az1").For(40 * time.Second))
	svc.SetSessions(500)
	// Session flood without matching RPS growth: the attack signature.
	grow := func() {}
	grow = func() {
		if !svc.Sandboxed() {
			svc.SetSessions(svc.st.Sessions + 8000)
		}
		if sc.Now() < 30*time.Second {
			sc.sim.After(time.Second, grow)
		}
	}
	sc.sim.After(10*time.Second, grow)
	sc.RunFor(45 * time.Second)
	if !svc.Sandboxed() {
		t.Errorf("session flood should be sandboxed; interventions: %v", sc.Stats().Interventions)
	}
}

func TestScenarioMultiRegionSpillover(t *testing.T) {
	sc := newScenario(t, ScenarioConfig{Seed: 7, Regions: []RegionConfig{
		{Name: "us-east"}, {Name: "eu-west"},
	}})
	if sc.Region("us-east") == nil || sc.Region("eu-west") == nil || sc.Region("nope") != nil {
		t.Fatal("region handles wrong")
	}
	svc, err := sc.RegisterService("acme", "web", 100, "192.168.0.10", ServiceConfig{DefaultSubset: "v1"})
	if err != nil {
		t.Fatal(err)
	}
	stats := svc.Drive(Constant(100).FromRegion("us-east").For(30 * time.Second))
	if err := sc.Inject(RegionEvacuation("us-east"), 10*time.Second); err != nil {
		t.Fatal(err)
	}
	if err := sc.Inject(RegionRestore("us-east"), 20*time.Second); err != nil {
		t.Fatal(err)
	}
	sc.RunFor(32 * time.Second)

	total := stats.Count(200) + stats.Count(503)
	if total == 0 {
		t.Fatal("no traffic")
	}
	// WAN spillover keeps the evacuated region's ingress available.
	if frac := float64(stats.Count(200)) / float64(total); frac < 0.99 {
		t.Errorf("success fraction %.3f; spillover should absorb the region outage", frac)
	}
	us := sc.Region("us-east").Routing()
	if us.Spilled == 0 || us.Local == 0 {
		t.Errorf("us-east routing %+v: want both local serves and WAN spills", us)
	}
	if us.Unserved != 0 {
		t.Errorf("us-east routing %+v: nothing should go unserved with a healthy peer", us)
	}
}

func TestScenarioRegionPartition(t *testing.T) {
	sc := newScenario(t, ScenarioConfig{Seed: 8, Regions: []RegionConfig{
		{Name: "us-east"}, {Name: "eu-west"},
	}})
	svc, err := sc.RegisterService("acme", "web", 100, "192.168.0.10", ServiceConfig{DefaultSubset: "v1"})
	if err != nil {
		t.Fatal(err)
	}
	if err := sc.Inject(RegionPartition("us-east", "nope"), 0); err == nil {
		t.Error("unknown region in partition should error")
	}
	stats := svc.Drive(Constant(100).FromRegion("us-east").For(25 * time.Second))
	// Evacuate the ingress region so it depends on the peer, then cut the
	// WAN link and heal it later.
	if err := sc.Inject(RegionEvacuation("us-east"), 3*time.Second); err != nil {
		t.Fatal(err)
	}
	if err := sc.Inject(RegionPartition("us-east", "eu-west"), 6*time.Second); err != nil {
		t.Fatal(err)
	}
	if err := sc.Inject(RegionHeal("us-east", "eu-west"), 15*time.Second); err != nil {
		t.Fatal(err)
	}
	sc.RunFor(28 * time.Second)

	us := sc.Region("us-east").Routing()
	if us.SpillLost == 0 {
		t.Errorf("routing %+v: the undetected partition window should blackhole spills", us)
	}
	if us.Unserved == 0 {
		t.Errorf("routing %+v: the detected partition should leave requests unserved", us)
	}
	if us.Spilled == 0 {
		t.Errorf("routing %+v: spillover should work before the cut and after the heal", us)
	}
	if stats.Count(503) == 0 || stats.Count(200) == 0 {
		t.Errorf("status mix %d ok / %d unavailable: want both phases visible", stats.Count(200), stats.Count(503))
	}
}

func TestScenarioDriveRejectsIncompletePatterns(t *testing.T) {
	sc := newScenario(t, ScenarioConfig{Seed: 1})
	svc, err := sc.RegisterService("acme", "web", 100, "192.168.0.10", ServiceConfig{DefaultSubset: "v1"})
	if err != nil {
		t.Fatal(err)
	}
	mustPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: Drive should panic instead of silently driving nothing", name)
			}
		}()
		fn()
	}
	mustPanic("no rate", func() { svc.Drive(TrafficPattern{}.For(time.Second)) })
	mustPanic("no duration", func() { svc.Drive(Constant(100)) })
}

func TestScenarioDefaultsAndErrors(t *testing.T) {
	sc := newScenario(t, ScenarioConfig{})
	if _, err := sc.RegisterService("t", "s", 1, "not-an-ip", ServiceConfig{DefaultSubset: "v1"}); err == nil {
		t.Error("bad address should error")
	}
	if _, err := sc.RegisterService("t", "s", 1, "10.0.0.1", ServiceConfig{DefaultSubset: "v1"}); err != nil {
		t.Errorf("defaults should produce a working scenario: %v", err)
	}
}

func TestScenarioAdmissionProtectsVictim(t *testing.T) {
	sc := newScenario(t, ScenarioConfig{Seed: 3, AZs: []string{"az1"}, ShardSize: 1,
		Backends: 1, ReplicasPerBE: 1, CoresPerReplica: 1})
	sc.EnableAdmission(AdmissionOptions{Target: time.Millisecond, Interval: 10 * time.Millisecond})
	agg, err := sc.RegisterService("aggressor", "api", 100, "192.168.0.10", ServiceConfig{DefaultSubset: "v1"})
	if err != nil {
		t.Fatal(err)
	}
	vic, err := sc.RegisterService("victim", "api", 200, "192.168.0.11", ServiceConfig{DefaultSubset: "v1"})
	if err != nil {
		t.Fatal(err)
	}
	// One core serves ~4950 rps; the aggressor alone offers 3x that.
	aggStats := agg.Drive(Constant(15000).From("az1").For(10 * time.Second))
	vicStats := vic.Drive(Constant(500).From("az1").For(10 * time.Second))
	sc.RunFor(12 * time.Second)

	st := sc.Stats()
	if st.AdmissionSheds == 0 {
		t.Error("3x overload shed nothing")
	}
	if fi := st.AdmissionFairness; fi <= 0 || fi > 1 {
		t.Errorf("fairness = %v", fi)
	}
	if aggStats.Count(429) == 0 {
		t.Error("aggressor overload produced no 429s")
	}
	vicOK, vicTotal := vicStats.Count(200), vicStats.Count(200)+vicStats.Count(429)
	if vicTotal == 0 || float64(vicOK)/float64(vicTotal) < 0.8 {
		t.Errorf("victim served %d/%d; admission should protect it", vicOK, vicTotal)
	}
}

package anomaly

import (
	"math"
	"net/netip"
	"testing"
	"time"

	"canalmesh/internal/cloud"
	"canalmesh/internal/gateway"
	"canalmesh/internal/l7"
	"canalmesh/internal/netmodel"
	"canalmesh/internal/sim"
	"canalmesh/internal/telemetry"
)

func TestClassifyAttackSignature(t *testing.T) {
	// §6.2 Case #1: sessions saturate 80% of capacity, #TCP sessions surge
	// without matching RPS -> lossy migration.
	c := Classify(Signals{
		WaterLevel:         0.4,
		RPSGrowth:          1.1,
		SessionGrowth:      8.0,
		SessionUtilization: 0.85,
		UserClusterUtil:    -1,
	})
	if c.Action != ActionLossyMigrate {
		t.Errorf("action = %v (%s), want lossy migrate", c.Action, c.Reason)
	}
}

func TestClassifyFrequentScaling(t *testing.T) {
	// §6.2 Case #2: slow growth over hours, repeated auto-scaling, stable
	// backends -> lossless migration.
	c := Classify(Signals{
		WaterLevel:       0.4,
		RPSGrowth:        1.3,
		SessionGrowth:    1.2,
		ScalingOpsRecent: 7,
		UserClusterUtil:  -1,
	})
	if c.Action != ActionLosslessMigrate {
		t.Errorf("action = %v (%s), want lossless migrate", c.Action, c.Reason)
	}
}

func TestClassifyTenantOverload(t *testing.T) {
	// §6.2 Case #3: the user's own cluster nears 100% -> throttle at the
	// gateway.
	c := Classify(Signals{
		WaterLevel:      0.5,
		RPSGrowth:       4.0,
		SessionGrowth:   4.0,
		UserClusterUtil: 0.99,
	})
	if c.Action != ActionThrottle {
		t.Errorf("action = %v (%s), want throttle", c.Action, c.Reason)
	}
}

func TestClassifyNormalGrowthScales(t *testing.T) {
	c := Classify(Signals{
		WaterLevel:      0.85,
		RPSGrowth:       2.5,
		SessionGrowth:   2.4,
		UserClusterUtil: -1,
	})
	if c.Action != ActionScale {
		t.Errorf("action = %v (%s), want scale", c.Action, c.Reason)
	}
}

func TestClassifyNominal(t *testing.T) {
	c := Classify(Signals{WaterLevel: 0.3, RPSGrowth: 1.0, SessionGrowth: 1.0, UserClusterUtil: -1})
	if c.Action != ActionNone {
		t.Errorf("action = %v, want none", c.Action)
	}
}

func TestClassifyAttackBeatsScale(t *testing.T) {
	// High water level AND session surge: the attack branch must win so we
	// do not scale resources for an attacker.
	c := Classify(Signals{
		WaterLevel:         0.9,
		RPSGrowth:          1.0,
		SessionGrowth:      10,
		SessionUtilization: 0.9,
		UserClusterUtil:    -1,
	})
	if c.Action != ActionLossyMigrate {
		t.Errorf("action = %v, want lossy migrate to win over scale", c.Action)
	}
}

func TestActionString(t *testing.T) {
	names := map[Action]string{
		ActionNone: "none", ActionScale: "scale", ActionLossyMigrate: "lossy-migrate",
		ActionLosslessMigrate: "lossless-migrate", ActionThrottle: "throttle",
	}
	for a, want := range names {
		if a.String() != want {
			t.Errorf("%d.String() = %q, want %q", a, a.String(), want)
		}
	}
	if Action(42).String() == "" {
		t.Error("unknown action should stringify")
	}
}

func TestGrowthRatio(t *testing.T) {
	if g := GrowthRatio([]float64{10, 10, 20, 20}); math.Abs(g-2) > 1e-9 {
		t.Errorf("growth = %v, want 2", g)
	}
	if g := GrowthRatio([]float64{5}); g != 1 {
		t.Errorf("single sample growth = %v, want 1", g)
	}
	if g := GrowthRatio([]float64{0, 0, 10, 10}); g <= 1 {
		t.Errorf("growth from zero = %v, want > 1", g)
	}
	if g := GrowthRatio([]float64{0, 0, 0, 0}); g != 1 {
		t.Errorf("flat zero growth = %v, want 1", g)
	}
}

// phaseGateway builds a gateway whose first backend hosts three services
// with controllable RPS series.
func phaseGateway(t *testing.T) (*sim.Sim, *gateway.Gateway, *gateway.Backend, []*gateway.ServiceState) {
	t.Helper()
	s := sim.New(3)
	region := cloud.NewRegion(s, "r1", "az1")
	g := gateway.New(gateway.Config{Sim: s, Costs: netmodel.Default(), ShardSize: 1, Seed: 3})
	// Enough backends in one AZ that stage-1 selection (keep the 5 lowest)
	// can actually exclude busy candidates.
	for i := 0; i < 8; i++ {
		if _, err := g.AddBackend(region.AZ("az1"), 1, 2, false); err != nil {
			t.Fatal(err)
		}
	}
	var svcs []*gateway.ServiceState
	for i, name := range []string{"a", "b", "c"} {
		st, err := g.RegisterService("t1", name, 100, netip.MustParseAddr("192.168.0."+string(rune('1'+i))), 80, i == 0, l7.ServiceConfig{DefaultSubset: "v1"})
		if err != nil {
			t.Fatal(err)
		}
		svcs = append(svcs, st)
	}
	// Force all three onto backend 0 for the in-phase scenario.
	b0 := g.Backends()[0]
	for _, st := range svcs {
		if !b0.HostsService(st.ID) {
			if err := g.ExtendService(st.ID, b0); err != nil {
				t.Fatal(err)
			}
		}
	}
	return s, g, b0, svcs
}

// fillSeries writes sinusoidal RPS samples for a service on a backend.
func fillSeries(b *gateway.Backend, id uint64, phase float64, points int) {
	series := b.RPSSeries[id]
	for i := 0; i < points; i++ {
		at := time.Duration(i) * time.Second
		v := 100 + 50*math.Sin(2*math.Pi*float64(i)/24+phase)
		series.Append(at, v)
	}
}

func TestInPhaseServicesDetection(t *testing.T) {
	_, _, b0, svcs := phaseGateway(t)
	fillSeries(b0, svcs[0].ID, 0, 48)
	fillSeries(b0, svcs[1].ID, 0, 48)       // in phase with a
	fillSeries(b0, svcs[2].ID, math.Pi, 48) // anti-phase
	pairs := InPhaseServices(b0, 0, 48*time.Second, 0.9)
	if len(pairs) != 1 {
		t.Fatalf("pairs = %v, want exactly the (a,b) pair", pairs)
	}
	if pairs[0].A != svcs[0].ID || pairs[0].B != svcs[1].ID {
		t.Errorf("wrong pair: %+v", pairs[0])
	}
	if pairs[0].Correlation < 0.9 {
		t.Errorf("correlation = %v", pairs[0].Correlation)
	}
}

func TestSelectServicesToMigratePrefersFastMovers(t *testing.T) {
	_, g, b0, svcs := phaseGateway(t)
	fillSeries(b0, svcs[0].ID, 0, 48)
	fillSeries(b0, svcs[1].ID, 0, 48)
	svcs[0].Sessions = 10_000 // many long-lasting sessions: avoid
	svcs[1].Sessions = 3      // drains quickly: prefer
	got := SelectServicesToMigrate(g, b0, []uint64{svcs[0].ID, svcs[1].ID}, 0, 48*time.Second, 1)
	if len(got) != 1 || got[0] != svcs[1].ID {
		t.Errorf("selected %v, want the few-session service %d", got, svcs[1].ID)
	}
}

func TestHTTPSWeighting(t *testing.T) {
	_, g, b0, svcs := phaseGateway(t)
	// svc a is HTTPS (set in phaseGateway), b is not; same traffic and
	// sessions: HTTPS ranks first by weighted RPS.
	fillSeries(b0, svcs[0].ID, 0, 48)
	fillSeries(b0, svcs[1].ID, 0, 48)
	svcs[0].Sessions = 0
	svcs[1].Sessions = 0
	got := SelectServicesToMigrate(g, b0, []uint64{svcs[0].ID, svcs[1].ID}, 0, 48*time.Second, 2)
	if len(got) != 2 || got[0] != svcs[0].ID {
		t.Errorf("order = %v, want HTTPS service first", got)
	}
}

func TestHWHM(t *testing.T) {
	var pts []telemetry.Point
	// Triangle peaking at t=10s over a zero baseline.
	for i := 0; i <= 20; i++ {
		v := 10 - math.Abs(float64(i-10))
		pts = append(pts, telemetry.Point{T: time.Duration(i) * time.Second, V: v})
	}
	start, end, ok := HWHM(pts)
	if !ok {
		t.Fatal("HWHM failed")
	}
	if start != 5*time.Second || end != 15*time.Second {
		t.Errorf("HWHM = [%v, %v], want [5s, 15s]", start, end)
	}
	// Flat series has no peak.
	flat := []telemetry.Point{{T: 0, V: 5}, {T: time.Second, V: 5}, {T: 2 * time.Second, V: 5}}
	if _, _, ok := HWHM(flat); ok {
		t.Error("flat series should have no HWHM")
	}
	if _, _, ok := HWHM(nil); ok {
		t.Error("empty series should fail")
	}
}

func TestSamplePoints(t *testing.T) {
	pts := SamplePoints(0, 9*time.Second, 10)
	if len(pts) != 10 || pts[0] != 0 || pts[9] != 9*time.Second {
		t.Errorf("SamplePoints = %v", pts)
	}
	if got := SamplePoints(5*time.Second, 5*time.Second, 10); len(got) != 1 {
		t.Errorf("degenerate range = %v", got)
	}
}

func TestSelectLandingBackendsPrefersIdle(t *testing.T) {
	_, g, b0, svcs := phaseGateway(t)
	fillSeries(b0, svcs[0].ID, 0, 48)
	// Give other backends utilization histories: backend 1 busy, rest idle.
	for i, b := range g.Backends() {
		if b == b0 {
			continue
		}
		for j := 0; j < 48; j++ {
			at := time.Duration(j) * time.Second
			if i == 1 {
				b.Util.Append(at, 0.9)
			} else {
				b.Util.Append(at, 0.05)
			}
		}
	}
	targets := SelectLandingBackends(g, svcs[0].ID, b0, 48*time.Second, 3)
	if len(targets) == 0 {
		t.Fatal("no landing backends")
	}
	for _, b := range targets {
		if b == g.Backends()[1] {
			t.Error("busy backend should rank last, not be selected")
		}
		if b.AZ != b0.AZ {
			t.Error("landing must stay in the same AZ")
		}
	}
}

func TestScatterInPhaseMovesServices(t *testing.T) {
	_, g, b0, svcs := phaseGateway(t)
	fillSeries(b0, svcs[0].ID, 0, 48)
	fillSeries(b0, svcs[1].ID, 0, 48)
	fillSeries(b0, svcs[2].ID, 0, 48) // all three in phase
	for _, b := range g.Backends() {
		if b == b0 {
			continue
		}
		for j := 0; j < 48; j++ {
			b.Util.Append(time.Duration(j)*time.Second, 0.05)
		}
	}
	before := len(b0.Services())
	moves := ScatterInPhase(g, b0, 0, 48*time.Second, 0.9, 2)
	if len(moves) == 0 {
		t.Fatal("expected at least one move")
	}
	after := len(b0.Services())
	if after >= before {
		t.Errorf("backend still hosts %d services (was %d)", after, before)
	}
	if after == 0 {
		t.Error("at least one service should remain as anchor")
	}
}

func TestScatterNoPhaseSyncNoMoves(t *testing.T) {
	_, g, b0, svcs := phaseGateway(t)
	fillSeries(b0, svcs[0].ID, 0, 48)
	fillSeries(b0, svcs[1].ID, math.Pi, 48) // complementary already
	if moves := ScatterInPhase(g, b0, 0, 48*time.Second, 0.9, 2); moves != nil {
		t.Errorf("no in-phase pairs, but moved %v", moves)
	}
}

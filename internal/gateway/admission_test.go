package gateway

import (
	"testing"
	"time"

	"canalmesh/internal/admission"
	"canalmesh/internal/cloud"
	"canalmesh/internal/l7"
	"canalmesh/internal/netmodel"
	"canalmesh/internal/sim"
	"canalmesh/internal/telemetry"
	"canalmesh/internal/units"
)

// admissionGateway builds a deliberately small gateway — one backend, one
// single-core replica — so a single aggressive tenant can saturate it.
func admissionGateway(t *testing.T) (*sim.Sim, *Gateway) {
	t.Helper()
	s := sim.New(11)
	region := cloud.NewRegion(s, "r1", "az1")
	g := New(Config{Sim: s, Costs: netmodel.Default(), ShardSize: 1, Seed: 11})
	if _, err := g.AddBackend(region.AZ("az1"), 1, 1, false); err != nil {
		t.Fatal(err)
	}
	g.EnableAdmission(admission.Config{
		Quantum: 250 * time.Microsecond,
		Limiter: admission.LimiterConfig{MinLimit: 2, Tolerance: 3},
	})
	return s, g
}

// TestAdmissionIsolatesVictimFromAggressor floods one tenant through a shared
// single-core replica while another tenant trickles along at a sustainable
// rate: the victim's requests must keep completing at near-baseline latency,
// and the aggressor's excess must be shed with typed 429s rather than queued.
func TestAdmissionIsolatesVictimFromAggressor(t *testing.T) {
	s, g := admissionGateway(t)
	agg := register(t, g, "aggressor", "api", 100, "192.168.0.10")
	vic := register(t, g, "victim", "api", 200, "192.168.0.11")

	status := map[string]map[int]int{"aggressor": {}, "victim": {}}
	victimLat := &telemetry.Sample{}
	fl := uint16(0)
	dispatch := func(st *ServiceState, tenant string) {
		fl++
		req := l7.Request{Tenant: tenant, SourceService: "client", Method: "GET", Path: "/", BodyBytes: 1024}
		g.Dispatch(st.ID, "az1", flow(fl), req, 1, func(lat time.Duration, code int) {
			status[tenant][code]++
			if tenant == "victim" && code == l7.StatusOK {
				victimLat.ObserveDuration(lat)
			}
		})
	}
	// One core at ~200µs/request serves ~50 requests per 10ms; the
	// aggressor bursts 150 per 10ms (3x capacity), the victim trickles one
	// per 1ms (20% of capacity).
	s.Every(10*time.Millisecond, func() bool {
		if s.Now() >= time.Second {
			return false
		}
		for i := 0; i < 150; i++ {
			dispatch(agg, "aggressor")
		}
		return true
	})
	s.Every(time.Millisecond, func() bool {
		if s.Now() >= time.Second {
			return false
		}
		dispatch(vic, "victim")
		return true
	})
	s.Run()

	if status["victim"][l7.StatusOK] < 900 {
		t.Fatalf("victim completed %d of ~1000 offered; admission should protect it (statuses %v)",
			status["victim"][l7.StatusOK], status["victim"])
	}
	if p99 := units.Seconds(victimLat.Percentile(99)); p99 > 5*time.Millisecond {
		t.Fatalf("victim p99 = %v under aggressor flood, want near-baseline (<=5ms)", p99)
	}
	if status["aggressor"][l7.StatusTooManyRequests] == 0 {
		t.Fatal("aggressor offered 3x capacity but nothing was shed with 429")
	}
	// The typed rejections show up in the admission metrics too.
	m := g.AdmissionMetrics()
	if m == nil || m.ShedTotal() == 0 {
		t.Fatal("admission metrics recorded no sheds")
	}
	if fi := m.FairnessIndex(); fi <= 0 || fi > 1 {
		t.Fatalf("fairness index = %v, want (0, 1]", fi)
	}
}

// TestAdmissionDisabledKeepsLegacyPath: without EnableAdmission, Dispatch
// must behave exactly as before — analytic FCFS queueing, no 429s, no
// admission metrics.
func TestAdmissionDisabledKeepsLegacyPath(t *testing.T) {
	s, _, g := testGateway(t)
	st := register(t, g, "t1", "web", 100, "192.168.0.10")
	if g.AdmissionMetrics() != nil {
		t.Fatal("admission should default to off: metrics should be nil")
	}
	okCount := 0
	s.At(0, func() {
		for i := 0; i < 500; i++ {
			g.Dispatch(st.ID, "az1", flow(uint16(i)), gwReq(), 1, func(lat time.Duration, code int) {
				if code == l7.StatusOK {
					okCount++
				}
			})
		}
	})
	s.Run()
	if okCount != 500 {
		t.Fatalf("legacy path completed %d of 500 without admission", okCount)
	}
}

// TestAdmissionAppliesToLaterBackends: backends added after EnableAdmission
// get the per-tenant discipline installed on their replicas too.
func TestAdmissionAppliesToLaterBackends(t *testing.T) {
	s, g := admissionGateway(t)
	region := cloud.NewRegion(s, "r2", "az1")
	b, err := g.AddBackend(region.AZ("az1"), 1, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range b.Replicas {
		if r.VM.Proc.Discipline() == nil {
			t.Fatal("backend added after EnableAdmission lacks a queue discipline")
		}
	}
}

package integration

import (
	"fmt"
	"net/netip"
	"testing"
	"time"

	"canalmesh/internal/admission"
	"canalmesh/internal/cloud"
	"canalmesh/internal/gateway"
	"canalmesh/internal/l7"
	"canalmesh/internal/netmodel"
	"canalmesh/internal/sim"
	"canalmesh/internal/telemetry"
	"canalmesh/internal/units"
	"canalmesh/internal/workload"
)

// TestFlashCrowdAdmissionEndToEnd drives the whole stack — gateway shard,
// per-replica WDRR disciplines, per-service AIMD limiters, telemetry
// sampling — through a single-tenant flash crowd and checks the paper's
// pre-migration story: while anomaly detection would still be gathering
// evidence (tens of seconds), the admission layer already confines the blast
// radius to the aggressor tenant.
func TestFlashCrowdAdmissionEndToEnd(t *testing.T) {
	const (
		end        = 24 * time.Second
		crowdStart = 6 * time.Second
		crowdRamp  = 2 * time.Second
		crowdHold  = 8 * time.Second
	)
	s := sim.New(99)
	region := cloud.NewRegion(s, "r1", "az1")
	g := gateway.New(gateway.Config{Sim: s, Costs: netmodel.Default(), ShardSize: 2, Seed: 99})
	for i := 0; i < 2; i++ {
		if _, err := g.AddBackend(region.AZ("az1"), 1, 1, false); err != nil {
			t.Fatal(err)
		}
	}
	g.EnableAdmission(admission.Config{
		Quantum: 250 * time.Microsecond,
		Limiter: admission.LimiterConfig{MinLimit: 2, Tolerance: 3},
	})
	g.StartSampling(func() bool { return s.Now() > end })

	tenants := []string{"aggressor", "victim1", "victim2"}
	svcs := make([]*gateway.ServiceState, len(tenants))
	for i, tenant := range tenants {
		st, err := g.RegisterService(tenant, "api", uint32(300+i),
			netip.AddrFrom4([4]byte{192, 168, 60, byte(i + 1)}), 80, false,
			l7.ServiceConfig{DefaultSubset: "v1"})
		if err != nil {
			t.Fatal(err)
		}
		svcs[i] = st
	}

	flashFrom, flashTo := crowdStart+crowdRamp, crowdStart+crowdRamp+crowdHold
	base := &telemetry.Sample{}
	flash := &telemetry.Sample{}
	statuses := map[string]map[int]int{}
	crowdSheds := 0 // 429s for requests sent while the crowd was on
	flow := 0
	drive := func(idx int, rate workload.RateFunc) {
		tenant := tenants[idx]
		statuses[tenant] = map[int]int{}
		workload.OpenLoop(s, rate, time.Millisecond, end, func() {
			flow++
			at := s.Now()
			key := cloud.SessionKey{SrcIP: "10.9.0.1", SrcPort: uint16(flow%60000 + 1), DstIP: fmt.Sprint(idx), DstPort: 80, Proto: 6}
			req := l7.Request{Tenant: tenant, SourceService: "client", Method: "GET", Path: "/", BodyBytes: 1024}
			g.Dispatch(svcs[idx].ID, "az1", key, req, 1, func(lat time.Duration, status int) {
				statuses[tenant][status]++
				if status == l7.StatusTooManyRequests && at >= crowdStart && at < flashTo {
					crowdSheds++
				}
				if idx > 0 && status == l7.StatusOK {
					switch {
					case at < crowdStart:
						base.ObserveDuration(lat)
					case at >= flashFrom && at < flashTo:
						flash.ObserveDuration(lat)
					}
				}
			})
		})
	}
	drive(0, workload.FlashCrowd(2000, 10000, crowdStart, crowdRamp, crowdHold))
	drive(1, workload.Constant(800))
	drive(2, workload.Constant(800))
	s.Run()

	baseP99, flashP99 := units.Seconds(base.Percentile(99)), units.Seconds(flash.Percentile(99))
	if baseP99 <= 0 || flash.Count() == 0 {
		t.Fatalf("missing victim samples: base %v (%d), flash %d", baseP99, base.Count(), flash.Count())
	}
	if blowup := float64(flashP99) / float64(baseP99); blowup > 2 {
		t.Fatalf("victim flash p99 %v is %.2fx baseline %v, want <=2x under admission", flashP99, blowup, baseP99)
	}
	// The aggressor's excess was shed as typed 429s, not silently queued.
	if statuses["aggressor"][l7.StatusTooManyRequests] == 0 {
		t.Fatal("5x flash crowd produced no 429s for the aggressor")
	}
	m := g.AdmissionMetrics()
	if m == nil || m.ShedTotal() == 0 {
		t.Fatal("admission metrics recorded no sheds")
	}
	if fi := m.FairnessIndex(); fi <= 0 || fi > 1 {
		t.Fatalf("fairness index = %v", fi)
	}
	// The sheds came while the crowd was on.
	if crowdSheds == 0 {
		t.Error("no request sent during the flash crowd was shed")
	}
	// Victims keep nearly all their offered load end to end.
	for _, tenant := range tenants[1:] {
		ok := statuses[tenant][l7.StatusOK]
		total := 0
		for _, n := range statuses[tenant] {
			total += n
		}
		if total == 0 || float64(ok)/float64(total) < 0.95 {
			t.Errorf("%s served %d/%d; admission should protect victims (statuses %v)", tenant, ok, total, statuses[tenant])
		}
	}
}

package bench

import (
	"context"
	"fmt"
	"net/netip"
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

// Timing of the flash-crowd scenario: the aggressor runs at its base rate
// until crowdStart, ramps to 5x over crowdRamp, holds the peak, and ramps
// back down. The "flash window" measured below is the held peak.
const (
	admSeed       = 42
	crowdStart    = 10 * time.Second
	crowdRamp     = 2 * time.Second
	crowdHold     = 11 * time.Second
	admRunEnd     = 30 * time.Second
	aggressorBase = 2000.0 // RPS
	aggressorPeak = 10000.0
	victimRate    = 800.0 // RPS per victim tenant
	numVictims    = 3
	// goodputDeadline is the client-side usefulness deadline: a response
	// slower than this counts as a failure for goodput purposes even if it
	// eventually completes (the sim has no client timeouts, so without a
	// deadline an hours-late response would still count).
	goodputDeadline = 50 * time.Millisecond
)

// admissionRun summarizes one flash-crowd run (admission on or off).
type admissionRun struct {
	victimBaseP99  time.Duration // victim p99 before the crowd arrives
	victimFlashP99 time.Duration // victim p99 during the held peak
	victimGoodput  float64       // victim OK completions/s during the peak
	totalGoodput   float64       // all-tenant OK completions/s during the peak
	shed           float64       // total shed requests (0 with admission off)
	fairness       float64       // Jain index over per-tenant admitted counts
}

// runAdmissionFlashCrowd drives one aggressor tenant and three victim
// tenants through a two-backend gateway shard and measures what the victims
// experience. Both runs use the same seed, so on/off differ only in the
// admission layer.
func runAdmissionFlashCrowd(enable bool) admissionRun {
	s := sim.New(admSeed)
	region := cloud.NewRegion(s, "r1", "az1", "az2")
	g := gateway.New(gateway.Config{
		Sim: s, Costs: netmodel.Default(),
		ShardSize: 2, Seed: admSeed,
	})
	// Two single-core replicas in the clients' AZ: a deliberately small
	// shard, so a 5x crowd from one tenant pushes it past saturation.
	for i := 0; i < 2; i++ {
		if _, err := g.AddBackend(region.AZ("az1"), 1, 1, false); err != nil {
			panic(err)
		}
	}
	if enable {
		g.EnableAdmission(admission.Config{
			// Fine-grained rounds (~1 request per visit) suit the
			// gateway's ~200µs request cost.
			Quantum: 250 * time.Microsecond,
			Limiter: admission.LimiterConfig{MinLimit: 2, Tolerance: 3},
		})
	}

	tenants := []string{"aggressor"}
	for i := 1; i <= numVictims; i++ {
		tenants = append(tenants, fmt.Sprintf("victim%d", i))
	}
	services := make([]*gateway.ServiceState, len(tenants))
	for i, tenant := range tenants {
		addr := netip.AddrFrom4([4]byte{192, 168, 50, byte(i + 1)})
		st, err := g.RegisterService(tenant, "api", uint32(200+i), addr, 80, false,
			l7.ServiceConfig{DefaultSubset: "v1"})
		if err != nil {
			panic(err)
		}
		services[i] = st
	}
	g.StartSampling(func() bool { return s.Now() > admRunEnd })

	flashFrom := crowdStart + crowdRamp
	flashTo := flashFrom + crowdHold
	victimBase := &telemetry.Sample{}
	victimFlash := &telemetry.Sample{}
	var victimFlashOK, totalFlashOK int
	flow := 0
	drive := func(idx int, rate workload.RateFunc) {
		st := services[idx]
		tenant := tenants[idx]
		// lat is the whole time since Dispatch was called, so the answer
		// carries its arrival instant and one callback serves every
		// arrival of the tenant.
		done := func(lat time.Duration, status int) {
			if status != 200 {
				return
			}
			at := s.Now() - lat
			inFlash := at >= flashFrom && at < flashTo
			if inFlash && lat <= goodputDeadline {
				totalFlashOK++
			}
			if idx == 0 {
				return
			}
			switch {
			case at < crowdStart:
				victimBase.ObserveDuration(lat)
			case inFlash:
				victimFlash.ObserveDuration(lat)
				if lat <= goodputDeadline {
					victimFlashOK++
				}
			}
		}
		workload.OpenLoop(s, rate, time.Millisecond, admRunEnd, func() {
			flow++
			req := l7.Request{Tenant: tenant, SourceService: "client", Method: "GET", Path: "/", BodyBytes: 1024}
			g.Dispatch(st.ID, "az1", dispatchFlow(flow), req, 1, done)
		})
	}
	drive(0, workload.FlashCrowd(aggressorBase, aggressorPeak, crowdStart, crowdRamp, crowdHold))
	for i := 1; i < len(tenants); i++ {
		drive(i, workload.Constant(victimRate))
	}
	s.Run()

	out := admissionRun{
		victimBaseP99:  units.Seconds(victimBase.Percentile(99)),
		victimFlashP99: units.Seconds(victimFlash.Percentile(99)),
		victimGoodput:  float64(victimFlashOK) / crowdHold.Seconds(),
		totalGoodput:   float64(totalFlashOK) / crowdHold.Seconds(),
		fairness:       1,
	}
	if m := g.AdmissionMetrics(); m != nil {
		out.shed = m.ShedTotal()
		out.fairness = m.FairnessIndex()
	}
	return out
}

// AdmissionFlashCrowd is the admission-control headline experiment: the same
// 5x single-tenant flash crowd replayed with the admission layer off and on.
// Off, the shared FCFS queue lets the aggressor's backlog set every tenant's
// latency; on, the per-service AIMD limiters shed the aggressor's excess and
// per-tenant WDRR queues order what they admit, so the victims keep their
// baseline service. This is
// the pre-migration window complement to fig16's sandbox-migration story.
// The two runs are independent simulations, run in parallel.
func AdmissionFlashCrowd(ctx context.Context) *Table {
	var runs [2]admissionRun // off, on
	ForEachPoint(ctx, len(runs), func(i int) { runs[i] = runAdmissionFlashCrowd(i == 1) })
	off, on := runs[0], runs[1]

	t := &Table{
		ID:    "admission",
		Title: "Flash crowd: victim latency and goodput, admission off vs on",
		Headers: []string{"mode", "victim base p99", "victim flash p99", "blowup",
			"victim goodput (rps)", "total goodput (rps)", "shed", "fairness"},
	}
	row := func(mode string, r admissionRun, admitted bool) {
		blowup := 0.0
		if r.victimBaseP99 > 0 {
			blowup = float64(r.victimFlashP99) / float64(r.victimBaseP99)
		}
		fairness := "-"
		if admitted {
			fairness = fmt.Sprintf("%.3f", r.fairness)
		}
		t.AddRow(mode, r.victimBaseP99.String(), r.victimFlashP99.String(),
			fmt.Sprintf("%.1fx", blowup), r.victimGoodput, r.totalGoodput, r.shed, fairness)
	}
	row("off", off, false)
	row("on", on, true)

	onBlowup := float64(on.victimFlashP99) / float64(on.victimBaseP99)
	offBlowup := float64(off.victimFlashP99) / float64(off.victimBaseP99)
	t.Notes = append(t.Notes,
		fmt.Sprintf("admission on keeps victim p99 within 2x of unloaded baseline: %.2fx (target <=2x)", onBlowup),
		fmt.Sprintf("admission off shows queue-driven blowup: %.0fx baseline", offBlowup),
		fmt.Sprintf("victim goodput (<=%v) under crowd: off %.0f rps, on %.0f rps (offered %.0f rps)",
			goodputDeadline, off.victimGoodput, on.victimGoodput, victimRate*numVictims),
	)
	return t
}

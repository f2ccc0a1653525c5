package gateway

import (
	"testing"
	"time"

	"canalmesh/internal/admission"
	"canalmesh/internal/sim"
)

const reqCost = 200 * time.Microsecond

// TestWDRRFairnessUnderSkew submits a 10:1 load skew between two tenants to
// a single-core processor and checks that the completed work is split close
// to evenly: the aggressor's queue depth must not buy it throughput.
func TestWDRRFairnessUnderSkew(t *testing.T) {
	s := sim.New(1)
	p := sim.NewProcessor(s, "be", 1)
	metrics := admission.NewMetrics()
	p.SetDiscipline(newWDRRQueue(admission.Config{}, metrics))

	done := map[string]int{}
	submit := func(tenant string, n int) {
		for i := 0; i < n; i++ {
			tenant := tenant
			p.Submit(&sim.Work{
				Tenant: tenant,
				Cost:   reqCost,
				Do:     func() { done[tenant]++ },
				Drop:   func(time.Duration) {},
			})
		}
	}
	// Offer 10x more aggressor work than victim work every 10ms; the core
	// can serve ~50 requests per tick, i.e. less than the offered 55.
	s.Every(10*time.Millisecond, func() bool {
		if s.Now() >= time.Second {
			return false
		}
		submit("aggressor", 50)
		submit("victim", 5)
		return true
	})
	s.RunUntil(500 * time.Millisecond)

	// The victim offered 5 per tick; under WDRR it must complete all of
	// them (its fair share is half the core, far more than it asks for).
	ticks := 49 // ticks fully processed by 500ms
	wantVictim := 5 * ticks
	if done["victim"] < wantVictim-5 {
		t.Fatalf("victim completed %d of %d offered under 10:1 skew; WDRR should protect it", done["victim"], wantVictim)
	}
	if done["aggressor"] < done["victim"] {
		t.Fatalf("aggressor starved: %d vs victim %d", done["aggressor"], done["victim"])
	}
	t.Logf("victim %d aggressor %d", done["victim"], done["aggressor"])
}

// TestWDRRWeights checks that a 3x-weighted tenant gets ~3x the throughput
// of an equally backlogged 1x tenant.
func TestWDRRWeights(t *testing.T) {
	s := sim.New(1)
	p := sim.NewProcessor(s, "be", 1)
	q := newWDRRQueue(admission.Config{
		Weights: map[string]float64{"gold": 3, "bronze": 1},
		// A huge CoDel target so queue management stays out of the way.
		Target: time.Hour, Interval: time.Hour,
	}, nil)
	p.SetDiscipline(q)

	// Both tenants fill their queues to the cap. Over the first 20 ms the
	// core serves ~100 requests and both queues stay backlogged, so WDRR
	// alone splits the core between them.
	done := map[string]int{}
	for i := 0; i < perTenantCap; i++ {
		for _, tenant := range []string{"gold", "bronze"} {
			tenant := tenant
			p.Submit(&sim.Work{Tenant: tenant, Cost: reqCost, Do: func() { done[tenant]++ }})
		}
	}
	s.RunUntil(20 * time.Millisecond)

	ratio := float64(done["gold"]) / float64(done["bronze"])
	if ratio < 2.5 || ratio > 3.5 {
		t.Fatalf("gold/bronze throughput ratio = %.2f (gold %d, bronze %d), want ~3", ratio, done["gold"], done["bronze"])
	}
}

// TestQueueCapRejection fills one tenant's queue past its cap and checks the
// overflow is rejected at enqueue with zero sojourn.
func TestQueueCapRejection(t *testing.T) {
	s := sim.New(1)
	p := sim.NewProcessor(s, "be", 1)
	metrics := admission.NewMetrics()
	// A huge CoDel target keeps queue management out of the way.
	p.SetDiscipline(newWDRRQueue(admission.Config{Target: time.Hour, Interval: time.Hour}, metrics))

	var dropped int
	for i := 0; i < perTenantCap+12; i++ {
		p.Submit(&sim.Work{
			Tenant: "t1",
			Cost:   reqCost,
			Drop: func(sojourn time.Duration) {
				dropped++
				if sojourn != 0 {
					t.Errorf("enqueue rejection reported sojourn %v, want 0", sojourn)
				}
			},
		})
	}
	// 1 started immediately, perTenantCap queued, 11 rejected.
	if dropped != 11 {
		t.Fatalf("dropped %d, want 11", dropped)
	}
	if got := metrics.ShedCounter(admission.ReasonQueueFull).Value(); got != 11 {
		t.Fatalf("queue-full shed counter = %v, want 11", got)
	}
	s.Run()
}

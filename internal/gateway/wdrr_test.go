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
	p.SetDiscipline(newWDRRQueue(admission.Config{}))

	done := map[string]int{}
	submit := func(tenant string, n int) {
		for i := 0; i < n; i++ {
			tenant := tenant
			p.Submit(&sim.Work{
				Tenant: tenant,
				Cost:   reqCost,
				Do:     func() { done[tenant]++ },
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
	p.SetDiscipline(newWDRRQueue(admission.Config{
		Weights: map[string]float64{"gold": 3, "bronze": 1},
	}))

	// Both tenants queue 128 requests. Over the first 20 ms the core
	// serves ~100 requests and both queues stay backlogged, so WDRR alone
	// splits the core between them.
	done := map[string]int{}
	for i := 0; i < 128; i++ {
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

// TestWDRRWeightsWithArrivalsOnCompletions tops two 3:1-weighted tenants up
// every 1 ms with 200µs requests, so every top-up lands on the instant a
// request completes, before that completion has handed the core to the
// queue. The new arrival must wait its turn behind the queued work: if it
// took the free core, the tenant that tops up first would gain one request
// a tick and the split would drift to 4:1.
func TestWDRRWeightsWithArrivalsOnCompletions(t *testing.T) {
	s := sim.New(1)
	p := sim.NewProcessor(s, "be", 1)
	p.SetDiscipline(newWDRRQueue(admission.Config{
		Weights: map[string]float64{"gold": 3, "bronze": 1},
	}))

	const depth = 16 // requests each tenant keeps outstanding
	outstanding := map[string]int{}
	done := map[string]int{}
	s.Every(time.Millisecond, func() bool {
		for _, tenant := range []string{"gold", "bronze"} {
			tenant := tenant
			for ; outstanding[tenant] < depth; outstanding[tenant]++ {
				p.Submit(&sim.Work{Tenant: tenant, Cost: reqCost, Do: func() {
					outstanding[tenant]--
					done[tenant]++
				}})
			}
		}
		return s.Now() < 2*time.Second
	})
	s.RunUntil(2 * time.Second)

	ratio := float64(done["gold"]) / float64(done["bronze"])
	if ratio < 2.8 || ratio > 3.2 {
		t.Fatalf("gold/bronze throughput ratio = %.2f (gold %d, bronze %d), want ~3", ratio, done["gold"], done["bronze"])
	}
	t.Logf("gold %d bronze %d", done["gold"], done["bronze"])
}

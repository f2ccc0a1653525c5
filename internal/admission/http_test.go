package admission

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestHTTPControllerAdmitReleaseHoldsNoSamples is the regression test for
// the per-request leak on the live path: an admitted request used to append
// a constant zero sojourn to the tenant's unbounded Sample on release. The
// tenant's metrics now hold counters alone, so cycles must count Admitted
// and nothing else.
func TestHTTPControllerAdmitReleaseHoldsNoSamples(t *testing.T) {
	var now time.Duration
	c := newHTTPController(Config{}, func() time.Duration { return now })
	const cycles = 10000
	for i := 0; i < cycles; i++ {
		release, rej := c.Admit("acme", "web", false)
		if rej != nil {
			t.Fatalf("cycle %d: %v", i, rej)
		}
		now += time.Millisecond
		release(true)
	}
	tm := c.Metrics().Tenant("acme")
	if got := tm.Admitted.Value(); got != cycles {
		t.Errorf("Admitted = %v, want %d", got, cycles)
	}
	if got := tm.Shed.Value(); got != 0 {
		t.Errorf("Shed = %v after %d admitted cycles, want 0", got, cycles)
	}
}

// oracleVerdict predicts Admit's verdict the way the controller decided
// before it kept a running active weight: by walking every tenant's slot
// and summing the weights of the active ones other than the asker. It
// reads the controller's state and must run with no Admit or release in
// progress.
func oracleVerdict(c *HTTPController, tenant string, isRetry bool) (Reason, bool) {
	inflight, tokens := 0, 10.0 // an unseen tenant: nothing in flight, a full budget
	if s := c.slots[tenant]; s != nil {
		inflight, tokens = s.inflight, s.budget.Tokens()
	}
	if isRetry && tokens < 1 {
		return ReasonRetryBudget, false
	}
	w := c.cfg.Weight(tenant)
	total := w
	for t, s := range c.slots {
		if s.inflight > 0 && t != tenant {
			total += c.cfg.Weight(t)
		}
	}
	share := int(math.Ceil(c.limiter.Limit() * w / total))
	if share < 1 {
		share = 1
	}
	if inflight >= share {
		return ReasonFairShare, false
	}
	if float64(c.limiter.Inflight()) >= c.limiter.Limit() {
		return ReasonLimiter, false
	}
	return "", true
}

// checkActive asserts that the running active count and weight equal what
// a walk over the slots gives. The weights are dyadic, so every float sum
// is exact whatever order it is taken in.
func checkActive(t *testing.T, c *HTTPController, step int) {
	t.Helper()
	n, sum := 0, 0.0
	for _, s := range c.slots {
		if s.inflight < 0 {
			t.Fatalf("step %d: negative in-flight count %d", step, s.inflight)
		}
		if s.inflight > 0 {
			n++
			sum += s.weight
		}
	}
	if c.active != n || c.activeWeight != sum {
		t.Fatalf("step %d: active %d weight %v, slot walk gives %d weight %v", step, c.active, c.activeWeight, n, sum)
	}
}

// TestHTTPControllerMatchesSlotWalk drives random admit/release
// interleavings over 20 tenants, weighted and unweighted, through a limiter
// whose limit moves with the observed latency, and checks every verdict and
// shed reason against oracleVerdict. Once everything is released the active
// weight must be exactly 0 and every slot empty.
func TestHTTPControllerMatchesSlotWalk(t *testing.T) {
	dyadic := []float64{0.25, 0.5, 0.75, 1.5, 2, 3.125, 0.375, 6}
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tenants := make([]string, 20)
		weights := map[string]float64{}
		for i := range tenants {
			tenants[i] = fmt.Sprintf("t%02d", i)
			switch {
			case i%3 == 2:
				// Unweighted: the default weight of 1.
			case i == 4:
				weights[tenants[i]] = 0 // non-positive: also the default
			default:
				weights[tenants[i]] = dyadic[rng.Intn(len(dyadic))]
			}
		}
		var now time.Duration
		c := newHTTPController(Config{
			Weights: weights,
			Limiter: LimiterConfig{InitialLimit: 24, MinLimit: 4, MaxLimit: 48},
		}, func() time.Duration { return now })

		type pending struct {
			tenant  string
			release func(bool)
		}
		var held []pending
		admitted := map[string]int{}
		shed := map[string]int{}
		reasons := map[Reason]int{}
		for step := 0; step < 4000; step++ {
			now += time.Duration(1+rng.Intn(3000)) * time.Microsecond
			if len(held) == 0 || rng.Intn(100) < 55 {
				tenant := tenants[rng.Intn(len(tenants))]
				if rng.Intn(4) == 0 {
					tenant = tenants[rng.Intn(3)] // a few tenants crowd in
				}
				isRetry := rng.Intn(5) == 0
				wantReason, wantOK := oracleVerdict(c, tenant, isRetry)
				release, rej := c.Admit(tenant, "svc", isRetry)
				switch {
				case wantOK && rej != nil:
					t.Fatalf("seed %d step %d: %s shed (%s), oracle admits", seed, step, tenant, rej.Reason)
				case !wantOK && rej == nil:
					t.Fatalf("seed %d step %d: %s admitted, oracle sheds (%s)", seed, step, tenant, wantReason)
				case rej != nil:
					if rej.Reason != wantReason || rej.Tenant != tenant || rej.Service != "svc" {
						t.Fatalf("seed %d step %d: rejection %+v, oracle reason %s", seed, step, rej, wantReason)
					}
					shed[tenant]++
					reasons[rej.Reason]++
				default:
					held = append(held, pending{tenant, release})
				}
			} else {
				i := rng.Intn(len(held))
				ok := rng.Intn(5) != 0
				held[i].release(ok)
				held[i].release(ok) // a second call is a no-op
				if ok {
					admitted[held[i].tenant]++
				}
				held[i] = held[len(held)-1]
				held = held[:len(held)-1]
			}
			checkActive(t, c, step)
		}
		for _, p := range held {
			p.release(true)
			admitted[p.tenant]++
		}
		if c.active != 0 || c.activeWeight != 0 {
			t.Fatalf("seed %d: drained controller has %d active tenants of weight %v, want 0 and exactly 0", seed, c.active, c.activeWeight)
		}
		for name, s := range c.slots {
			if s.inflight != 0 {
				t.Fatalf("seed %d: drained slot %s holds %d in flight", seed, name, s.inflight)
			}
			if got := s.metrics.Shed.Value(); got != float64(shed[name]) {
				t.Errorf("seed %d: %s shed counter %v, want %d", seed, name, got, shed[name])
			}
			if got := s.metrics.Admitted.Value(); got != float64(admitted[name]) {
				t.Errorf("seed %d: %s admitted counter %v, want %d", seed, name, got, admitted[name])
			}
		}
		for _, r := range []Reason{ReasonRetryBudget, ReasonFairShare, ReasonLimiter} {
			if reasons[r] == 0 {
				t.Errorf("seed %d: no request was shed for %s; the interleaving does not reach it", seed, r)
			}
		}
		if got := c.limiter.Inflight(); got != 0 {
			t.Fatalf("seed %d: limiter holds %d in flight after drain", seed, got)
		}
	}
}

// TestHTTPControllerConcurrent admits and releases from 8 goroutines over
// 16 tenants, each goroutine holding a few requests at once. Every admitted
// request must be counted once and, after Wait, nothing may remain in
// flight.
func TestHTTPControllerConcurrent(t *testing.T) {
	const goroutines, tenants, rounds = 8, 16, 2000
	c := NewHTTPController(Config{
		Limiter: LimiterConfig{InitialLimit: 64, MinLimit: 16, MaxLimit: 128},
	})
	var admits atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var held [3]func(bool)
			for i := 0; i < rounds; i++ {
				k := i % len(held)
				if held[k] != nil {
					held[k](true)
					held[k] = nil
				}
				release, rej := c.Admit(fmt.Sprintf("t%d", (g+i)%tenants), "svc", i%7 == 0)
				if rej == nil {
					admits.Add(1)
					held[k] = release
				}
			}
			for _, release := range held {
				if release != nil {
					release(true)
				}
			}
		}(g)
	}
	wg.Wait()

	var counted float64
	for i := 0; i < tenants; i++ {
		counted += c.Metrics().Tenant(fmt.Sprintf("t%d", i)).Admitted.Value()
	}
	if counted != float64(admits.Load()) {
		t.Errorf("tenants' admitted counts sum to %v, %d requests were admitted", counted, admits.Load())
	}
	if admits.Load() == 0 {
		t.Fatal("no request was admitted")
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.active != 0 || c.activeWeight != 0 {
		t.Errorf("after Wait: %d active tenants of weight %v, want 0", c.active, c.activeWeight)
	}
	for name, s := range c.slots {
		if s.inflight != 0 {
			t.Errorf("after Wait: %s holds %d in flight", name, s.inflight)
		}
	}
	if got := c.limiter.Inflight(); got != 0 {
		t.Errorf("after Wait: limiter holds %d in flight", got)
	}
}

// TestHTTPControllerStaleRelease calls a release function a second time
// after its ticket has been re-issued to the next request. The stale call
// must do nothing: the re-issued request stays in flight and counted until
// its own release.
func TestHTTPControllerStaleRelease(t *testing.T) {
	var now time.Duration
	c := newHTTPController(Config{}, func() time.Duration { return now })
	first, rej := c.Admit("acme", "web", false)
	if rej != nil {
		t.Fatal(rej)
	}
	first(true)
	second, rej := c.Admit("acme", "web", false)
	if rej != nil {
		t.Fatal(rej)
	}
	c.mu.Lock()
	reissued := len(c.free) == 0
	c.mu.Unlock()
	if !reissued {
		t.Fatal("the second Admit did not re-issue the first request's ticket")
	}

	first(true)
	first(false)
	admitted := c.Metrics().Tenant("acme").Admitted
	c.mu.Lock()
	inflight := c.slots["acme"].inflight
	c.mu.Unlock()
	if inflight != 1 || c.limiter.Inflight() != 1 || admitted.Value() != 1 {
		t.Fatalf("after stale releases: %d in flight for acme, %d in the limiter, %v admitted; want 1, 1, 1",
			inflight, c.limiter.Inflight(), admitted.Value())
	}

	second(true)
	second(true)
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.slots["acme"].inflight != 0 || c.active != 0 || c.limiter.Inflight() != 0 || admitted.Value() != 2 {
		t.Fatalf("after the second release: %d in flight for acme, %d active, %d in the limiter, %v admitted; want 0, 0, 0, 2",
			c.slots["acme"].inflight, c.active, c.limiter.Inflight(), admitted.Value())
	}
}

// admitReleased keeps the benchmarked release reachable.
var admitReleased func(bool)

// BenchmarkHTTPControllerAdmit times one Admit and its release for a tenant
// after the given number of tenants have each admitted a request before: a
// decision should cost the same however many tenants the gateway has seen.
func BenchmarkHTTPControllerAdmit(b *testing.B) {
	for _, seen := range []int{1, 64, 4096} {
		b.Run(fmt.Sprintf("tenants=%d", seen), func(b *testing.B) {
			c := NewHTTPController(Config{})
			for i := 0; i < seen; i++ {
				release, rej := c.Admit(fmt.Sprintf("t%d", i), "svc", false)
				if rej != nil {
					b.Fatal(rej)
				}
				release(true)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				release, rej := c.Admit("t0", "svc", false)
				if rej != nil {
					b.Fatal(rej)
				}
				release(true)
				admitReleased = release
			}
		})
	}
}

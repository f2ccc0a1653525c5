package proxy

import (
	"testing"
	"time"

	"canalmesh/internal/l7"
	"canalmesh/internal/sim"
	"canalmesh/internal/trace"
)

// meshConfig returns the Config a built mesh runs on, whose free list its
// chains return to.
func meshConfig(t *testing.T, m Mesh) *Config {
	t.Helper()
	switch m := m.(type) {
	case *Direct:
		return &m.Cfg
	case *Istio:
		return &m.Cfg
	case *Ambient:
		return &m.Cfg
	case *Canal:
		return &m.Cfg
	}
	t.Fatalf("unknown mesh %T", m)
	return nil
}

// checkRecycled fails unless ch holds nothing of the request it carried:
// only its Config and its bound wake callback survive.
func checkRecycled(t *testing.T, c *Config, ch *chain) {
	t.Helper()
	if ch.cfg != c || ch.wake == nil {
		t.Fatalf("recycled chain lost its config or bound callback")
	}
	if ch.sim != nil || ch.tracer != nil || ch.tr != nil || ch.done != nil || ch.status != 0 ||
		ch.steps != nil || ch.buf != [maxSteps]step{} || ch.start != 0 || ch.i != 0 ||
		ch.serving || ch.arrive != 0 || ch.queued != 0 {
		t.Fatalf("recycled chain keeps request state: trace %v, status %d, %d steps, hop %d",
			ch.tr, ch.status, len(ch.steps), ch.i)
	}
}

// TestChainRecycle sends requests through every architecture with a tracer
// attached, over both terminal outcomes (served, and answered locally by the
// deciding hop), then a second tenant's requests on the recycled chains: done
// fires exactly once, the request's trace is finished before its chain is
// recycled, and the recycled chain is zeroed before done runs.
func TestChainRecycle(t *testing.T) {
	for _, arch := range Architectures() {
		t.Run(arch, func(t *testing.T) {
			s := sim.New(3)
			cfg := newCfg(t, s)
			if err := cfg.Engine.Configure(l7.ServiceConfig{
				Service: "locked", DefaultSubset: "v1",
				Authz: []l7.AuthzRule{{Name: "deny-all", Action: l7.AuthzDeny}},
			}); err != nil {
				t.Fatal(err)
			}
			cfg.Tracer = trace.New(trace.Config{Seed: 3, Clock: s.Now})
			mesh, err := DefaultTestbedSpec(cfg).Build(arch)
			if err != nil {
				t.Fatal(err)
			}
			c := meshConfig(t, mesh)

			var calls []int
			finished := 0
			send := func(tenant, service string) {
				i := len(calls)
				calls = append(calls, 0)
				req := l7.Request{Tenant: tenant, Service: service, SourceService: "client", Method: "GET", Path: "/" + tenant, BodyBytes: 1024}
				mesh.Send(req, func(_ time.Duration, status int) {
					calls[i]++
					finished++
					kept := c.Tracer.Kept()
					if len(kept) != finished {
						t.Fatalf("%d traces finished when request %d answered, want %d", len(kept), i, finished)
					}
					if tr := kept[finished-1]; tr.Tenant != tenant || tr.Status != status || tr.Name != "GET /"+tenant {
						t.Fatalf("request %d (%s, %d) answered with trace %q of tenant %q, status %d",
							i, tenant, status, tr.Name, tr.Tenant, tr.Status)
					}
					checkRecycled(t, c, c.free[len(c.free)-1])
				})
			}
			s.At(0, func() {
				for i := 0; i < 3; i++ {
					send("t1", "web")
					send("t1", "locked")
				}
			})
			s.Run()
			s.After(time.Second, func() {
				for i := 0; i < 6; i++ {
					send("t2", "web")
				}
			})
			s.Run()

			for i, n := range calls {
				if n != 1 {
					t.Errorf("request %d: done fired %d times, want once", i, n)
				}
			}
			// Direct has no deciding hop: it routes nothing, so "locked"
			// is served like "web".
			statuses := map[int]int{}
			for _, tr := range c.Tracer.Kept() {
				statuses[tr.Status]++
			}
			if arch != "none" && statuses[l7.StatusForbidden] != 3 {
				t.Errorf("statuses %v, want three local 403s", statuses)
			}
			seen := map[*chain]bool{}
			for _, ch := range c.free {
				if seen[ch] {
					t.Fatal("a chain is on the free list twice")
				}
				seen[ch] = true
				checkRecycled(t, c, ch)
			}
			if len(c.free) == 0 || len(c.free) > 6 {
				t.Errorf("free list holds %d chains for at most 6 requests in flight", len(c.free))
			}
		})
	}
}

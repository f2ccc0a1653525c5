package gateway

import (
	"fmt"
	"net/netip"
	"reflect"
	"testing"
	"time"

	"canalmesh/internal/admission"
	"canalmesh/internal/cloud"
	"canalmesh/internal/l7"
	"canalmesh/internal/netmodel"
	"canalmesh/internal/sim"
)

// checkRecycled fails unless d holds nothing of the request it served: only
// the gateway and the callbacks bound when it was first allocated survive.
func checkRecycled(t *testing.T, g *Gateway, d *dispatch) {
	t.Helper()
	if d.g != g || d.Do == nil || d.served == nil {
		t.Fatalf("recycled dispatch lost its gateway or bound callbacks: %+v", d)
	}
	if d.s != nil || !reflect.ValueOf(d.req).IsZero() || d.r != nil || d.lim != nil || d.released || d.start != 0 || d.done != nil {
		t.Fatalf("recycled dispatch keeps request state: service %v, request %v, replica %v, limiter %v, released %v, start %v",
			d.s, d.req, d.r, d.lim, d.released, d.start)
	}
	if d.Tenant != "" || d.Cost != 0 {
		t.Fatalf("recycled dispatch keeps its work: tenant %q, cost %v", d.Tenant, d.Cost)
	}
}

// TestDispatchRecycleEveryTerminalPath drives every way a dispatch can end,
// with admission off and on: on each, done fires exactly once, the value is
// back on the free list and zeroed before done runs, and a second tenant's
// requests on the recycled values carry nothing of the first tenant's.
func TestDispatchRecycleEveryTerminalPath(t *testing.T) {
	allow := l7.ServiceConfig{DefaultSubset: "v1"}
	cases := []struct {
		name string
		// admission, when non-nil, is enabled with this config.
		admission *admission.Config
		l7cfg     l7.ServiceConfig
		// prepare breaks the world after registration.
		prepare func(t *testing.T, g *Gateway, st *ServiceState)
		n       int
		want    int              // a status at least one request must end with
		reason  admission.Reason // a shed reason that must have been counted
	}{
		{name: "served", l7cfg: allow, n: 3, want: l7.StatusOK},
		{name: "throttle", l7cfg: allow, n: 3, want: l7.StatusTooManyRequests,
			prepare: func(t *testing.T, g *Gateway, st *ServiceState) {
				if err := g.Throttle(st.ID, 1, 1); err != nil {
					t.Fatal(err)
				}
			}},
		{name: "no alive replica", l7cfg: allow, n: 3, want: l7.StatusUnavailable,
			prepare: func(_ *testing.T, _ *Gateway, st *ServiceState) {
				for _, b := range st.Backends {
					for _, r := range b.Replicas {
						r.VM.Fail()
					}
				}
			}},
		{name: "route error", n: 3, want: l7.StatusForbidden,
			l7cfg: l7.ServiceConfig{DefaultSubset: "v1", Authz: []l7.AuthzRule{{Name: "deny-all", Action: l7.AuthzDeny}}}},
		{name: "limiter shed", l7cfg: allow, n: 4, want: l7.StatusTooManyRequests, reason: admission.ReasonLimiter,
			admission: &admission.Config{Limiter: admission.LimiterConfig{InitialLimit: 1, MaxLimit: 1}}},
	}
	for _, tc := range cases {
		modes := []*admission.Config{nil, {}}
		if tc.admission != nil {
			modes = []*admission.Config{tc.admission}
		}
		for _, adm := range modes {
			t.Run(fmt.Sprintf("%s/admission=%v", tc.name, adm != nil), func(t *testing.T) {
				s := sim.New(21)
				region := cloud.NewRegion(s, "r1", "az1")
				g := New(Config{Sim: s, Costs: netmodel.Default(), ShardSize: 1, Seed: 21})
				if _, err := g.AddBackend(region.AZ("az1"), 1, 1, false); err != nil {
					t.Fatal(err)
				}
				if adm != nil {
					g.EnableAdmission(*adm)
				}
				first, err := g.RegisterService("t1", "web", 100, netip.MustParseAddr("192.168.0.10"), 80, false, tc.l7cfg)
				if err != nil {
					t.Fatal(err)
				}
				second := register(t, g, "t2", "web", 200, "192.168.0.11")
				if tc.prepare != nil {
					tc.prepare(t, g, first)
				}

				// The first tenant's wave meets the terminal path under
				// test; the second tenant's then runs on recycled values.
				calls := make([]int, 2*tc.n)
				statuses := map[int]int{}
				send := func(st *ServiceState, i int) {
					req := l7.Request{Tenant: st.Tenant, SourcePod: st.Tenant + "-pod", Method: "GET", Path: "/" + st.Tenant, BodyBytes: 1024}
					g.Dispatch(st.ID, "az1", flow(uint16(i+1)), req, 1, func(_ time.Duration, status int) {
						calls[i]++
						if st == first {
							statuses[status]++
						}
						// finish zeroes the value and frees it before done.
						checkRecycled(t, g, g.free[len(g.free)-1])
					})
				}
				s.At(0, func() {
					for i := 0; i < tc.n; i++ {
						send(first, i)
					}
				})
				s.Run()
				if len(g.free) == 0 {
					t.Fatal("no dispatch value came back to the free list")
				}
				s.After(time.Second, func() {
					for i := tc.n; i < 2*tc.n; i++ {
						send(second, i)
					}
				})
				s.Run()

				for i, n := range calls {
					if n != 1 {
						t.Errorf("request %d: done fired %d times, want once", i, n)
					}
				}
				if statuses[tc.want] == 0 {
					t.Errorf("no request ended with %d; statuses %v", tc.want, statuses)
				}
				if tc.reason != "" {
					if got := g.AdmissionMetrics().ShedCounter(tc.reason).Value(); got == 0 {
						t.Errorf("no %s shed recorded; statuses %v", tc.reason, statuses)
					}
				}
				seen := map[*dispatch]bool{}
				for _, d := range g.free {
					if seen[d] {
						t.Fatal("a dispatch value is on the free list twice")
					}
					seen[d] = true
					checkRecycled(t, g, d)
				}
			})
		}
	}
}

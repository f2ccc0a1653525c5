package bench

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"canalmesh/internal/l7"
	"canalmesh/internal/meshcrypto"
	"canalmesh/internal/policy"
	"canalmesh/internal/sim"
	"canalmesh/internal/trace"
)

// hotPathBaselineFile is the checked-in allocs/op baseline for the
// //canal:hotpath operations; TestHotPathAllocs fails on any increase.
// Regenerate with CANAL_UPDATE_BENCH=1 go test -run TestHotPathAllocs ./internal/bench
const hotPathBaselineFile = "BENCH_hotpath.json"

// hotPathBaseline mirrors the JSON layout of BENCH_hotpath.json.
type hotPathBaseline struct {
	Note        string             `json:"note"`
	AllocsPerOp map[string]float64 `json:"allocs_per_op"`
}

// measureHotPathAllocs measures allocations per operation on the
// request-time operations the hotpath analyzer polices statically: L7
// route matching, one sim event-loop step (push + pop + dispatch), trace
// hop recording, the policy lookup, the trace-context codec and a
// verified-peer memo hit. The static
// analyzer proves the code *shape* cannot allocate; this measures that the
// compiler agrees at runtime.
func measureHotPathAllocs(t *testing.T) map[string]float64 {
	t.Helper()
	got := map[string]float64{}

	// L7 route match: a configured service with a matching rule (prefix
	// path, exact header, traffic split) on the allow path.
	eng := l7.NewEngine(42)
	if err := eng.Configure(l7.ServiceConfig{
		Service:       "checkout",
		DefaultSubset: "v1",
		Rules: []l7.Rule{{
			Name: "api",
			Match: l7.RouteMatch{
				Path:    l7.Prefix("/api/"),
				Headers: []l7.KVMatch{{Name: "x-tenant", Match: l7.Exact("acme")}},
			},
			Splits: []l7.Split{{Subset: "v1", Weight: 90}, {Subset: "v2", Weight: 10}},
		}},
	}); err != nil {
		t.Fatal(err)
	}
	req := &l7.Request{
		Service: "checkout",
		Method:  "GET",
		Path:    "/api/cart",
		Headers: map[string]string{"x-tenant": "acme"},
	}
	var dec l7.Decision
	got["route_match"] = testing.AllocsPerRun(1000, func() {
		d, err := eng.Route(0, req)
		if err != nil {
			panic(err)
		}
		dec = d
	})
	if !dec.Allowed || dec.Rule != "api" {
		t.Fatalf("route bench did not exercise the matched allow path: %+v", dec)
	}

	// Sim event-loop step: schedule one event and drain it. The closure is
	// pre-bound so the measurement isolates the queue, not closure capture.
	s := sim.New(1)
	ticks := 0
	tick := func() { ticks++ }
	got["sim_event_step"] = testing.AllocsPerRun(1000, func() {
		s.At(s.Now(), tick)
		s.RunUntil(s.Now())
	})
	if ticks == 0 || s.Pending() != 0 {
		t.Fatalf("sim bench did not dispatch its events: ticks=%d pending=%d", ticks, s.Pending())
	}

	// Trace hop recording: AddHop into the preallocated span slice, reset
	// between runs so the measurement never crosses the 8-hop growth edge.
	clk := sim.New(2)
	tr := trace.New(trace.Config{Seed: 7, Clock: clk.Now})
	tc := tr.Start("canal", "req")
	hop := trace.Hop{Name: "gw", Start: 0, End: time.Millisecond, CPU: time.Millisecond}
	got["trace_add_hop"] = testing.AllocsPerRun(1000, func() {
		tc.Spans = tc.Spans[:1]
		tc.AddHop(hop)
	})
	if len(tc.Hops()) != 1 {
		t.Fatalf("trace bench did not record hops: %d", len(tc.Hops()))
	}

	// Policy lookup: a compiled dispatch-table Eval through a populated
	// shard (exact-key hit plus wildcard probes) on the deny-wins path.
	pc := policy.NewCompiler(policy.Config{Seed: 42})
	if _, err := pc.Apply(nil, []policy.Intention{
		{ID: "a", Name: "allow", SrcTenant: "acme", Src: policy.Exact("web"),
			Dst: policy.Exact("checkout"), Action: policy.ActionAllow},
		{ID: "d", Name: "deny-admin", SrcTenant: "acme", Src: policy.Any(),
			Dst: policy.Exact("checkout"), Path: policy.Prefix("/admin"),
			Action: policy.ActionDeny},
	}); err != nil {
		t.Fatal(err)
	}
	pq := policy.Query{SrcTenant: "acme", SrcService: "web", DstService: "checkout",
		Method: "GET", Path: "/api/cart"}
	var pv policy.Verdict
	got["policy_lookup"] = testing.AllocsPerRun(1000, func() {
		pv = pc.Eval(pq)
	})
	if !pv.Allowed || pv.Rule != "allow" {
		t.Fatalf("policy bench did not exercise the matched allow path: %+v", pv)
	}

	// Trace-context codec: every live request parses one traceparent and
	// renders one toward the upstream, and its trace ID is rendered for the
	// access log. Parsing decodes in place; a render allocates its result.
	tid, sid, sampled, err := trace.ParseTraceparent("00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01")
	if err != nil {
		t.Fatal(err)
	}
	got["traceparent_parse"] = testing.AllocsPerRun(1000, func() {
		tid, sid, sampled, _ = trace.ParseTraceparent("00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01")
	})
	var rendered string
	got["traceparent_render"] = testing.AllocsPerRun(1000, func() {
		rendered = trace.Traceparent(tid, sid, sampled)
	})
	if rendered != "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01" {
		t.Fatalf("codec bench did not round-trip its header: %q", rendered)
	}
	got["trace_id_string"] = testing.AllocsPerRun(1000, func() {
		rendered = tid.String()
	})
	if rendered != "4bf92f3577b34da6a3ce929d0e0e4736" {
		t.Fatalf("codec bench rendered trace ID %q", rendered)
	}

	// Verified-peer memo hit: what a signed request's certificate costs once
	// its CA has verified it, before the request's own signature check.
	ca, err := meshcrypto.NewCA("bench-ca")
	if err != nil {
		t.Fatal(err)
	}
	peer, err := ca.IssueIdentity("spiffe://bench/sa/web")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := ca.VerifyPeer(peer.CertDER); err != nil {
		t.Fatal(err)
	}
	var verified string
	got["verify_peer_hit"] = testing.AllocsPerRun(1000, func() {
		verified, _, _ = ca.VerifyPeer(peer.CertDER)
	})
	if verified != peer.ID {
		t.Fatalf("verify bench did not verify its peer: %q", verified)
	}

	return got
}

// TestHotPathAllocs is the allocation-regression gate riding on the
// hotpath analyzer: the checked-in BENCH_hotpath.json pins allocs/op for
// each //canal:hotpath operation and any increase fails the test. It skips
// under -race (instrumentation changes counts), so verify.sh runs it in a
// dedicated non-race invocation.
func TestHotPathAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation counts; verify.sh runs this without -race")
	}
	got := measureHotPathAllocs(t)
	path := filepath.Join("..", "..", hotPathBaselineFile)
	if os.Getenv("CANAL_UPDATE_BENCH") != "" {
		out, err := json.MarshalIndent(hotPathBaseline{
			Note:        "allocs/op baseline for //canal:hotpath operations; regenerate with CANAL_UPDATE_BENCH=1 go test -run TestHotPathAllocs ./internal/bench",
			AllocsPerOp: got,
		}, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(out, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s: %v", hotPathBaselineFile, got)
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing %s (regenerate with CANAL_UPDATE_BENCH=1): %v", hotPathBaselineFile, err)
	}
	var base hotPathBaseline
	if err := json.Unmarshal(data, &base); err != nil {
		t.Fatalf("corrupt %s: %v", hotPathBaselineFile, err)
	}
	for name, want := range base.AllocsPerOp {
		cur, ok := got[name]
		if !ok {
			t.Errorf("baseline metric %q no longer measured; regenerate %s", name, hotPathBaselineFile)
			continue
		}
		if cur > want {
			t.Errorf("allocs/op regression on %s: %v, baseline %v", name, cur, want)
		}
	}
	for name := range got {
		if _, ok := base.AllocsPerOp[name]; !ok {
			t.Errorf("metric %q not in %s; regenerate with CANAL_UPDATE_BENCH=1", name, hotPathBaselineFile)
		}
	}
}

package bench

import (
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"canalmesh/internal/admission"
	"canalmesh/internal/cloud"
	"canalmesh/internal/l4"
	"canalmesh/internal/l7"
	"canalmesh/internal/meshcrypto"
	"canalmesh/internal/netmodel"
	"canalmesh/internal/policy"
	"canalmesh/internal/proxy"
	"canalmesh/internal/sim"
	"canalmesh/internal/trace"
)

// hotPathBaselineFile is the checked-in allocs/op baseline for the
// request-path operations; TestHotPathAllocs fails on any increase.
// Regenerate with CANAL_UPDATE_BENCH=1 go test -run TestHotPathAllocs ./internal/bench
const hotPathBaselineFile = "BENCH_hotpath.json"

// hotPathBaseline mirrors the JSON layout of BENCH_hotpath.json.
type hotPathBaseline struct {
	Note        string             `json:"note"`
	AllocsPerOp map[string]float64 `json:"allocs_per_op"`
}

// measureHotPathAllocs measures allocations per operation on the
// request-time operations: L7 route matching (on prefix, exact, regex and
// cookie conditions), one sim event-loop step (push + pop + dispatch), trace
// hop recording, the policy lookup (exact and wildcard destination), the
// trace-context codec (a refused header included), a verified-peer memo
// hit, the flow hash and a processor completion — and on the simulated
// request paths built over them, a gateway dispatch with admission off and
// on and a mesh hop chain, whose recycled per-request values leave them
// nothing to allocate at steady state, even with a fresh request built for
// every call. Each row guards the branches it runs and no others: a branch
// that must not allocate gets a row of its own.
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
	got["route_match"] = allocsPerRun(1000, func() {
		d, err := eng.Route(0, req)
		if err != nil {
			panic(err)
		}
		dec = d
	})
	if !dec.Allowed || dec.Rule != "api" {
		t.Fatalf("route bench did not exercise the matched allow path: %+v", dec)
	}

	// L7 route match on the branches route_match leaves: a regex path and
	// header, whose pattern runs on the compiled policy.Match, and a
	// cookie.
	if err := eng.Configure(l7.ServiceConfig{
		Service:       "search",
		DefaultSubset: "v1",
		Rules: []l7.Rule{{
			Name: "beta",
			Match: l7.RouteMatch{
				Path:    l7.Regex(`^/api/v[0-9]+/items$`),
				Headers: []l7.KVMatch{{Name: "x-tenant", Match: l7.Regex(`^ac`)}},
				Cookies: []l7.KVMatch{{Name: "lane", Match: l7.Exact("beta")}},
			},
			Splits: []l7.Split{{Subset: "v2", Weight: 1}},
		}},
	}); err != nil {
		t.Fatal(err)
	}
	rreq := &l7.Request{
		Service: "search",
		Method:  "GET",
		Path:    "/api/v2/items",
		Headers: map[string]string{"x-tenant": "acme"},
		Cookies: map[string]string{"lane": "beta"},
	}
	got["route_match_regex_cookie"] = allocsPerRun(1000, func() {
		d, err := eng.Route(0, rreq)
		if err != nil {
			panic(err)
		}
		dec = d
	})
	if !dec.Allowed || dec.Rule != "beta" || dec.Subset != "v2" {
		t.Fatalf("regex/cookie route bench did not match its rule: %+v", dec)
	}

	// Sim event-loop step: schedule one event and drain it. The closure is
	// pre-bound so the measurement isolates the queue, not closure capture.
	s := sim.New(1)
	ticks := 0
	tick := func() { ticks++ }
	got["sim_event_step"] = allocsPerRun(1000, func() {
		s.At(s.Now(), tick)
		s.RunUntil(s.Now())
	})
	if ticks == 0 || s.Pending() != 0 {
		t.Fatalf("sim bench did not dispatch its events: ticks=%d pending=%d", ticks, s.Pending())
	}

	// Trace hop recording: AddHop into the span slice the trace started
	// with, reset between runs so the measurement never crosses its growth
	// edge.
	clk := sim.New(2)
	tr := trace.New(trace.Config{Seed: 7, Clock: clk.Now})
	tc := tr.Start("canal", "req")
	hop := trace.Hop{Name: "gw", Start: 0, End: time.Millisecond, CPU: time.Millisecond}
	got["trace_add_hop"] = allocsPerRun(1000, func() {
		tc.Spans = tc.Spans[:1]
		tc.AddHop(hop)
	})
	if len(tc.Hops()) != 1 {
		t.Fatalf("trace bench did not record hops: %d", len(tc.Hops()))
	}

	// Live trace cycle: what the live gateway's tracer costs a request —
	// a trace joined to the inbound context, one upstream hop, and Finish —
	// at steady state. Once the tracer's kept ring is full, every Finish
	// evicts a trace the next start refills, span slice and all.
	lt := trace.NewLive()
	var ltc *trace.Trace
	var spans int
	liveCycle := func() {
		ltc = lt.StartRemoteTenant(trace.TraceID{0x4b}, trace.SpanID{0xf0}, true, "gateway", "acme", "GET /api/cart")
		ltc.AddHop(trace.Hop{Name: "gateway/upstream"})
		spans = len(ltc.Spans)
		lt.Finish(ltc, 200)
	}
	for i := 0; i < 4096+100; i++ { // past the live tracer's kept-ring capacity
		liveCycle()
	}
	got["live_trace_cycle"] = allocsPerRun(1000, liveCycle)
	if spans != 2 || lt.Started() == 0 {
		t.Fatalf("live trace bench did not record its hop: %d spans", spans)
	}

	// Live admission: one HTTPController Admit and its release, for a
	// tenant the controller has seen before. The release function is the
	// one allocation; the ticket it closes over is recycled.
	hc := admission.NewHTTPController(admission.Config{})
	got["http_admit_release"] = allocsPerRun(1000, func() {
		release, rej := hc.Admit("acme", "checkout", false)
		if rej != nil {
			panic(rej)
		}
		release(true)
	})
	if hc.Metrics().Tenant("acme").Admitted.Value() == 0 {
		t.Fatal("admission bench admitted no request")
	}

	// Policy lookup: a compiled dispatch-table Eval through a populated
	// shard (exact-key hit plus wildcard probes) on the deny-wins path.
	pc := policy.NewCompiler()
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
	got["policy_lookup"] = allocsPerRun(1000, func() {
		pv = pc.Eval(pq)
	})
	if !pv.Allowed || pv.Rule != "allow" {
		t.Fatalf("policy bench did not exercise the matched allow path: %+v", pv)
	}

	// Policy lookup through an any-tenant, any-destination intention: the
	// wildcard-destination buckets the table probes only when one exists.
	wc := policy.NewCompiler()
	if _, err := wc.Apply(nil, []policy.Intention{
		{ID: "w", Name: "deny-debug", Src: policy.Exact("web"),
			Dst: policy.Any(), Path: policy.Prefix("/debug"), Action: policy.ActionDeny},
	}); err != nil {
		t.Fatal(err)
	}
	wq := policy.Query{SrcTenant: "acme", SrcService: "web", DstService: "checkout",
		Method: "GET", Path: "/debug/vars"}
	got["policy_lookup_wildcard_dst"] = allocsPerRun(1000, func() {
		pv = wc.Eval(wq)
	})
	if pv.Allowed || pv.Rule != "deny-debug" {
		t.Fatalf("wildcard-destination policy bench did not match its intention: %+v", pv)
	}

	// Trace-context codec: every live request parses one traceparent and
	// renders one toward the upstream, and its trace ID is rendered for the
	// access log. Parsing decodes in place; a render allocates its result.
	tid, sid, sampled, err := trace.ParseTraceparent("00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01")
	if err != nil {
		t.Fatal(err)
	}
	got["traceparent_parse"] = allocsPerRun(1000, func() {
		tid, sid, sampled, _ = trace.ParseTraceparent("00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01")
	})
	// A refused header: the error naming it is the cost of a rejection.
	var perr error
	got["traceparent_parse_refused"] = allocsPerRun(1000, func() {
		_, _, _, perr = trace.ParseTraceparent("00-4bf92f3577b34da6-00f067aa0ba902b7-01")
	})
	if perr == nil {
		t.Fatal("codec bench accepted a short trace ID")
	}
	var rendered string
	got["traceparent_render"] = allocsPerRun(1000, func() {
		rendered = trace.Traceparent(tid, sid, sampled)
	})
	if rendered != "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01" {
		t.Fatalf("codec bench did not round-trip its header: %q", rendered)
	}
	got["trace_id_string"] = allocsPerRun(1000, func() {
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
	got["verify_peer_hit"] = allocsPerRun(1000, func() {
		verified, _, _ = ca.VerifyPeer(peer.CertDER)
	})
	if verified != peer.ID {
		t.Fatalf("verify bench did not verify its peer: %q", verified)
	}

	// Flow hash: the 5-tuple hash every gateway backend and beamer pick
	// runs.
	flow := cloud.SessionKey{SrcIP: "10.9.3.17", SrcPort: 4711, DstIP: "10.1.0.1", DstPort: 80, Proto: 6}
	var fh uint64
	got["hash_5tuple"] = allocsPerRun(1000, func() {
		fh = l4.Hash5Tuple(flow)
	})
	if fh == 0 {
		t.Fatal("hash bench computed no hash")
	}

	// Processor completion: Exec schedules its pre-bound completion as the
	// event itself.
	ps := sim.New(3)
	proc := sim.NewProcessor(ps, "bench", 2)
	served := 0
	serve := func() { served++ }
	got["processor_exec"] = allocsPerRun(1000, func() {
		proc.Exec(time.Microsecond, serve)
		ps.Run()
	})
	if served == 0 {
		t.Fatal("processor bench completed no work")
	}

	// Gateway dispatch, admission off: one pre-built request on one flow
	// through backend and replica picks, L7 routing and the replica's CPU.
	gs := newGatewayScenario(4, 2, 2, 4, 1)
	svc := gs.Services[0]
	greq := gwRequest()
	ok := 0
	answered := func(_ time.Duration, status int) {
		if status == l7.StatusOK {
			ok++
		}
	}
	got["gateway_dispatch"] = allocsPerRun(1000, func() {
		gs.GW.Dispatch(svc.ID, "az1", flow, greq, 1, answered)
		gs.Sim.Run()
	})
	if ok == 0 {
		t.Fatal("gateway bench served no request")
	}

	// The same dispatch with the request built inside the call, as the
	// experiments build one per simulated arrival: taken by value, it stays
	// on the caller's stack.
	got["gateway_dispatch_fresh_request"] = allocsPerRun(1000, func() {
		gs.GW.Dispatch(svc.ID, "az1", flow, gwRequest(), 1, answered)
		gs.Sim.Run()
	})

	// Gateway dispatch, admission on: the same request through the
	// service's AIMD limiter and the replica's WDRR discipline, which
	// starts it on an idle core through the Work's pre-bound completion.
	as := newGatewayScenario(6, 2, 2, 4, 1)
	as.GW.EnableAdmission(admission.Config{})
	asvc := as.Services[0]
	got["gateway_dispatch_admitted"] = allocsPerRun(1000, func() {
		as.GW.Dispatch(asvc.ID, "az1", flow, greq, 1, answered)
		as.Sim.Run()
	})
	if as.GW.AdmissionMetrics().Tenant(asvc.Tenant).Admitted.Value() == 0 {
		t.Fatal("admitted gateway bench admitted no request")
	}

	// Mesh hop chain: one request over the no-mesh baseline's three hops.
	ms := sim.New(5)
	mesh, err := proxy.DefaultTestbedSpec(proxy.Config{Sim: ms, Costs: netmodel.Default(), Engine: l7.NewEngine(5)}).Build("none")
	if err != nil {
		t.Fatal(err)
	}
	mreq := l7.Request{Tenant: "t", Method: "GET", Path: "/", BodyBytes: 1024}
	delivered := 0
	arrived := func(time.Duration, int) { delivered++ }
	got["run_chain"] = allocsPerRun(1000, func() {
		mesh.Send(mreq, arrived)
		ms.Run()
	})
	// The same hop chain with the request built inside the call.
	got["run_chain_fresh_request"] = allocsPerRun(1000, func() {
		mesh.Send(webRequest(), arrived)
		ms.Run()
	})
	if delivered == 0 {
		t.Fatal("chain bench delivered no request")
	}

	return got
}

// allocsPerRun is testing.AllocsPerRun without its truncation to a whole
// number: it returns every allocation f made over runs calls (after one
// warm-up call) divided by runs. AllocsPerRun's integer mean reads 0 for a
// path that allocates on fewer than one call in runs, such as a slice that
// grows now and then, so a row pinned at 0 would let it pass.
func allocsPerRun(runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(runs)
}

// TestHotPathAllocs is the request paths' allocation-regression gate: the
// checked-in BENCH_hotpath.json pins allocs/op for each operation and any
// increase fails the test. It skips
// under -race (instrumentation changes counts), so verify.sh runs it in a
// dedicated non-race invocation.
func TestHotPathAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation counts; verify.sh runs this without -race")
	}
	got := measureHotPathAllocs(t)
	path := filepath.Join("..", "..", hotPathBaselineFile)
	if updateReports() {
		out, err := json.MarshalIndent(hotPathBaseline{
			Note:        "allocs/op baseline for the request-path operations, the one guard of their allocation contract; regenerate with CANAL_UPDATE_BENCH=1 go test -run TestHotPathAllocs ./internal/bench",
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

package proxy

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"canalmesh/internal/l7"
	"canalmesh/internal/netmodel"
	"canalmesh/internal/sim"
	"canalmesh/internal/trace"
	"canalmesh/internal/workload"
)

// newCfg builds a Config with a routed "web" service.
func newCfg(t *testing.T, s *sim.Sim) Config {
	t.Helper()
	engine := l7.NewEngine(1)
	if err := engine.Configure(l7.ServiceConfig{Service: "web", DefaultSubset: "v1"}); err != nil {
		t.Fatal(err)
	}
	return Config{Sim: s, Costs: netmodel.Default(), Engine: engine, EBPFRedirect: true}
}

func webReq(body int) l7.Request {
	return l7.Request{Tenant: "t1", Service: "web", SourceService: "client", Method: "GET", Path: "/", BodyBytes: body}
}

// lightLatency measures mean latency at 1 RPS (no queueing) for an arch.
func lightLatency(t *testing.T, arch string) time.Duration {
	t.Helper()
	s := sim.New(1)
	cfg := newCfg(t, s)
	if arch == "istio" {
		cfg.EBPFRedirect = false // Istio uses iptables
	}
	mesh, err := DefaultTestbedSpec(cfg).Build(arch)
	if err != nil {
		t.Fatal(err)
	}
	var sum time.Duration
	n := 0
	for i := 0; i < 100; i++ {
		at := time.Duration(i) * time.Second
		s.At(at, func() {
			mesh.Send(webReq(1024), func(lat time.Duration, status int) {
				if status != l7.StatusOK {
					t.Errorf("status = %d", status)
				}
				sum += lat
				n++
			})
		})
	}
	s.Run()
	if n != 100 {
		t.Fatalf("completed %d of 100", n)
	}
	return sum / time.Duration(n)
}

func TestFig10LatencyOrdering(t *testing.T) {
	// Fig 10: none < canal < ambient < istio under light load.
	none := lightLatency(t, "none")
	canal := lightLatency(t, "canal")
	ambient := lightLatency(t, "ambient")
	istio := lightLatency(t, "istio")
	if !(none < canal && canal < ambient && ambient < istio) {
		t.Errorf("latency ordering violated: none=%v canal=%v ambient=%v istio=%v", none, canal, ambient, istio)
	}
	// Paper: Istio 1.7x Canal, Ambient 1.3x Canal (roughly).
	if r := float64(istio) / float64(canal); r < 1.2 {
		t.Errorf("istio/canal latency ratio %.2f, want > 1.2", r)
	}
	if r := float64(ambient) / float64(canal); r < 1.02 {
		t.Errorf("ambient/canal latency ratio %.2f, want > 1.02", r)
	}
}

// saturationThroughput finds the highest per-second completion count
// achieved under an aggressive open loop — a proxy for the knee of Fig 11.
func saturationThroughput(t *testing.T, arch string) float64 {
	t.Helper()
	s := sim.New(1)
	cfg := newCfg(t, s)
	if arch == "istio" {
		cfg.EBPFRedirect = false
	}
	spec := DefaultTestbedSpec(cfg)
	spec.AppCores = 64 // apps never the bottleneck in this experiment
	mesh, err := spec.Build(arch)
	if err != nil {
		t.Fatal(err)
	}
	completed := 0
	workload.OpenLoop(s, workload.Constant(100_000), time.Millisecond, 2*time.Second, func() {
		mesh.Send(webReq(1024), func(time.Duration, int) { completed++ })
	})
	s.RunUntil(2 * time.Second)
	return float64(completed) / 2.0
}

func TestFig11ThroughputOrdering(t *testing.T) {
	canal := saturationThroughput(t, "canal")
	ambient := saturationThroughput(t, "ambient")
	istio := saturationThroughput(t, "istio")
	if !(canal > ambient && ambient > istio) {
		t.Fatalf("throughput ordering violated: canal=%v ambient=%v istio=%v", canal, ambient, istio)
	}
	if r := canal / istio; r < 3 {
		t.Errorf("canal/istio throughput ratio %.1f, want >= 3 (paper: 12.3x)", r)
	}
	if r := canal / ambient; r < 1.3 {
		t.Errorf("canal/ambient throughput ratio %.1f, want >= 1.3 (paper: 2.3x)", r)
	}
}

func TestFig13UserCPUOrdering(t *testing.T) {
	userCPU := func(arch string) float64 {
		s := sim.New(1)
		cfg := newCfg(t, s)
		if arch == "istio" {
			cfg.EBPFRedirect = false
		}
		mesh, err := DefaultTestbedSpec(cfg).Build(arch)
		if err != nil {
			t.Fatal(err)
		}
		workload.OpenLoop(s, workload.Constant(2000), time.Millisecond, 5*time.Second, func() {
			mesh.Send(webReq(1024), func(time.Duration, int) {})
		})
		s.Run()
		return UserCPUTotal(mesh)
	}
	istio := userCPU("istio")
	ambient := userCPU("ambient")
	canal := userCPU("canal")
	if !(canal < ambient && ambient < istio) {
		t.Fatalf("user CPU ordering violated: canal=%v ambient=%v istio=%v", canal, ambient, istio)
	}
	if r := istio / canal; r < 4 {
		t.Errorf("istio/canal user CPU ratio %.1f, want >= 4 (paper: 12-19x)", r)
	}
	if r := ambient / canal; r < 2 {
		t.Errorf("ambient/canal user CPU ratio %.1f, want >= 2 (paper: 4.6-7.2x)", r)
	}
}

func TestCanalGatewayCPUIsCloudSide(t *testing.T) {
	s := sim.New(1)
	mesh, err := DefaultTestbedSpec(newCfg(t, s)).Build("canal")
	if err != nil {
		t.Fatal(err)
	}
	s.At(0, func() {
		mesh.Send(webReq(1024), func(time.Duration, int) {})
	})
	s.Run()
	if len(mesh.CloudProcs()) != 1 {
		t.Fatal("canal should expose its gateway processor")
	}
	if mesh.CloudProcs()[0].BusyTotal() == 0 {
		t.Error("gateway should have done work")
	}
	for _, p := range mesh.UserProcs() {
		if p.Name() == mesh.CloudProcs()[0].Name() {
			t.Error("gateway must not be counted as user CPU")
		}
	}
}

func TestDeniedRequestShortCircuits(t *testing.T) {
	s := sim.New(1)
	cfg := newCfg(t, s)
	if err := cfg.Engine.Configure(l7.ServiceConfig{
		Service: "web", DefaultSubset: "v1",
		Authz: []l7.AuthzRule{{Name: "deny-all", Action: l7.AuthzDeny}},
	}); err != nil {
		t.Fatal(err)
	}
	for _, arch := range []string{"istio", "ambient", "canal"} {
		mesh, err := DefaultTestbedSpec(cfg).Build(arch)
		if err != nil {
			t.Fatal(err)
		}
		gotStatus := 0
		var okLat, denyLat time.Duration
		s.After(0, func() {
			mesh.Send(webReq(1024), func(lat time.Duration, status int) {
				gotStatus = status
				denyLat = lat
			})
		})
		s.Run()
		if gotStatus != l7.StatusForbidden {
			t.Errorf("%s: status = %d, want 403", arch, gotStatus)
		}
		_ = okLat
		if denyLat <= 0 {
			t.Errorf("%s: denied request should still take time", arch)
		}
	}
}

func TestNewConnectionPaysHandshake(t *testing.T) {
	s := sim.New(1)
	cfg := newCfg(t, s)
	cfg.Asym = LocalSoftwareAsym(cfg.Costs)
	mesh, err := DefaultTestbedSpec(cfg).Build("canal")
	if err != nil {
		t.Fatal(err)
	}
	var warm, cold time.Duration
	s.At(0, func() {
		r := webReq(1024)
		r.TLS = true
		r.NewConnection = true
		mesh.Send(r, func(lat time.Duration, _ int) { cold = lat })
	})
	s.At(time.Second, func() {
		r := webReq(1024)
		r.TLS = true
		mesh.Send(r, func(lat time.Duration, _ int) { warm = lat })
	})
	s.Run()
	if cold <= warm {
		t.Errorf("handshake should cost: cold=%v warm=%v", cold, warm)
	}
	if cold-warm < cfg.Costs.AsymSoft {
		t.Errorf("handshake delta %v below one software asym op %v", cold-warm, cfg.Costs.AsymSoft)
	}
}

func TestAsymPolicies(t *testing.T) {
	c := netmodel.Default()
	swCPU, swLat := LocalSoftwareAsym(c)()
	if swCPU != c.AsymSoft || swLat != 0 {
		t.Error("software policy terms")
	}
	accCPU, accLat := LocalAcceleratedAsym(c, 4)()
	if accCPU != c.AsymAccel || accLat != time.Millisecond {
		t.Errorf("accelerated partial batch: cpu=%v lat=%v", accCPU, accLat)
	}
	_, fullLat := LocalAcceleratedAsym(c, 8)()
	if fullLat != 0 {
		t.Error("full batch should not stall")
	}
	remCPU, remLat := RemoteKeyServerAsym(c)()
	if remCPU >= c.AsymAccel {
		t.Error("remote policy should consume almost no local CPU")
	}
	if remLat < c.IntraAZRTT {
		t.Error("remote policy latency should include the RTT")
	}
	if n, l := NoTLS(); n != 0 || l != 0 {
		t.Error("NoTLS should be free")
	}
}

func TestBuildUnknownArch(t *testing.T) {
	s := sim.New(1)
	if _, err := DefaultTestbedSpec(newCfg(t, s)).Build("linkerd"); err == nil {
		t.Error("unknown architecture should error")
	}
}

func TestArchitecturesList(t *testing.T) {
	got := Architectures()
	if len(got) != 4 || got[0] != "none" {
		t.Errorf("Architectures = %v", got)
	}
	s := sim.New(1)
	cfg := newCfg(t, s)
	for _, arch := range got {
		if _, err := DefaultTestbedSpec(cfg).Build(arch); err != nil {
			t.Errorf("Build(%s): %v", arch, err)
		}
	}
}

func TestFig2SaturationLatencySpike(t *testing.T) {
	// Fig 2's shape: past the knee, sidecar latency explodes (queueing).
	s := sim.New(1)
	cfg := newCfg(t, s)
	cfg.EBPFRedirect = false
	spec := DefaultTestbedSpec(cfg)
	spec.AppCores = 64
	mesh, err := spec.Build("istio")
	if err != nil {
		t.Fatal(err)
	}
	var lats []time.Duration
	workload.OpenLoop(s, workload.Constant(20000), time.Millisecond, time.Second, func() {
		mesh.Send(webReq(1024), func(lat time.Duration, _ int) { lats = append(lats, lat) })
	})
	s.RunUntil(time.Second)
	if len(lats) < 100 {
		t.Fatal("not enough completions")
	}
	min, max := lats[0], lats[0]
	for _, l := range lats {
		if l < min {
			min = l
		}
		if l > max {
			max = l
		}
	}
	if float64(max) < 10*float64(min) {
		t.Errorf("saturation should spike latency: min=%v max=%v", min, max)
	}
}

func TestTracingRecordsEveryHop(t *testing.T) {
	s := sim.New(1)
	cfg := newCfg(t, s)
	cfg.Tracer = trace.New(trace.Config{Seed: 1, Clock: s.Now})
	mesh, err := DefaultTestbedSpec(cfg).Build("canal")
	if err != nil {
		t.Fatal(err)
	}
	req := webReq(1024)
	req.TLS = true
	var total time.Duration
	s.At(0, func() {
		mesh.Send(req, func(lat time.Duration, _ int) { total = lat })
	})
	s.Run()
	kept := cfg.Tracer.Kept()
	if len(kept) != 1 {
		t.Fatalf("kept %d traces, want 1", len(kept))
	}
	tr := kept[0]
	if tr.Arch != "canal" || tr.Status != l7.StatusOK {
		t.Fatalf("trace header wrong: arch=%s status=%d", tr.Arch, tr.Status)
	}
	// The Canal path is 9 hops: client app -> node proxy -> gateway ->
	// node proxy -> server app, then back through all three mesh hops to
	// the client app.
	if len(tr.Hops()) != 9 {
		t.Fatalf("hops = %d, want 9: %+v", len(tr.Hops()), tr.Hops())
	}
	names := map[string]int{}
	var hopSum, cryptoSum time.Duration
	for _, sp := range tr.Hops() {
		names[sp.Name]++
		if sp.End < sp.Start {
			t.Errorf("span %s ends before it starts", sp.Name)
		}
		if sp.Parent != tr.Root().ID {
			t.Errorf("span %s not parented on the root", sp.Name)
		}
		if got := sp.End - sp.Start; got != sp.Queue+sp.CPU {
			t.Errorf("span %s window %v != queue %v + cpu %v", sp.Name, got, sp.Queue, sp.CPU)
		}
		hopSum += sp.Net + sp.Queue + sp.CPU
		cryptoSum += sp.Crypto
	}
	if names["canal/gateway"] != 2 {
		t.Errorf("gateway should appear on request and response: %v", names)
	}
	if names["canal/client-app"] != 2 || names["canal/node-client"] != 2 || names["canal/node-server"] != 2 {
		t.Errorf("each mesh hop should appear on request and response: %v", names)
	}
	// The per-hop net+queue+cpu segments are exhaustive: they reconcile
	// exactly with the measured end-to-end latency and the root span.
	if hopSum != total {
		t.Errorf("per-hop sum %v != end-to-end latency %v", hopSum, total)
	}
	if tr.Total() != total {
		t.Errorf("root span %v != measured latency %v", tr.Total(), total)
	}
	if cryptoSum <= 0 {
		t.Error("TLS request should attribute crypto time on mesh hops")
	}
}

func TestTraceTreesDeterministic(t *testing.T) {
	// Two identically-seeded runs must serialize to byte-identical trace
	// trees — IDs, sampling decisions, timestamps, and attribution all flow
	// from the seed. Safe under -count=2: every run builds fresh state.
	run := func() []byte {
		s := sim.New(5)
		cfg := newCfg(t, s)
		cfg.Asym = LocalSoftwareAsym(cfg.Costs)
		cfg.Tracer = trace.New(trace.Config{Seed: 5, Clock: s.Now})
		mesh, err := DefaultTestbedSpec(cfg).Build("canal")
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 40; i++ {
			at := time.Duration(i) * 5 * time.Millisecond
			newConn := i%4 == 0
			s.At(at, func() {
				r := webReq(1024)
				r.TLS = true
				r.NewConnection = newConn
				mesh.Send(r, func(time.Duration, int) {})
			})
		}
		s.Run()
		all := append(cfg.Tracer.Kept(), cfg.Tracer.Tail()...)
		js, err := json.Marshal(all)
		if err != nil {
			t.Fatal(err)
		}
		return js
	}
	a, b := run(), run()
	if !bytes.Equal(a, b) {
		t.Fatalf("trace trees differ between identically-seeded runs:\nrun 1: %s\nrun 2: %s", a, b)
	}
	if len(a) < 100 {
		t.Fatalf("suspiciously small serialized trace set: %s", a)
	}
}

func TestTracingOffByDefault(t *testing.T) {
	s := sim.New(1)
	cfg := newCfg(t, s)
	mesh, err := DefaultTestbedSpec(cfg).Build("istio")
	if err != nil {
		t.Fatal(err)
	}
	s.At(0, func() { mesh.Send(webReq(128), func(time.Duration, int) {}) })
	s.Run() // must simply not panic with a nil tracer
}

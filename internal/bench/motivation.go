package bench

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"canalmesh/internal/cluster"
	"canalmesh/internal/controlplane"
	"canalmesh/internal/l7"
	"canalmesh/internal/netmodel"
	"canalmesh/internal/proxy"
	"canalmesh/internal/sim"
	"canalmesh/internal/telemetry"
	"canalmesh/internal/workload"
)

// newComparisonCfg builds the shared testbed Config with a routed service.
func newComparisonCfg(s *sim.Sim) proxy.Config {
	engine := l7.NewEngine(1)
	_ = engine.Configure(l7.ServiceConfig{Service: "web", DefaultSubset: "v1"})
	return proxy.Config{Sim: s, Costs: netmodel.Default(), Engine: engine, EBPFRedirect: true}
}

func webRequest() l7.Request {
	return l7.Request{Tenant: "t1", Service: "web", SourceService: "client", Method: "GET", Path: "/", BodyBytes: 1024}
}

// Fig02SidecarCPULatency sweeps offered load on an Istio sidecar pair and
// reports sidecar CPU utilization against mean end-to-end latency: flat at
// low utilization, doubling around the 45% mark, and spiking as the sidecar
// saturates (Fig 2). Each load point is its own simulation; the points run
// in parallel and are added in load order.
func Fig02SidecarCPULatency(ctx context.Context) *Series {
	out := &Series{ID: "fig2", Title: "Sidecar CPU usage vs end-to-end latency",
		XLabel: "sidecar CPU utilization (%)", YLabel: "mean latency (ms)"}
	loads := []float64{0.1, 0.2, 0.3, 0.45, 0.6, 0.75, 0.85, 0.95}
	utils := make([]float64, len(loads))
	means := make([]float64, len(loads))
	ForEachPoint(ctx, len(loads), func(k int) {
		loadFrac := loads[k]
		s := sim.New(1)
		cfg := newComparisonCfg(s)
		spec := proxy.DefaultTestbedSpec(cfg)
		spec.AppCores = 64
		mesh, err := spec.Build("istio")
		if err != nil {
			panic(err)
		}
		// Per-request sidecar CPU is ~0.65 ms on the client sidecar; one
		// core saturates near 1500 RPS. Bursty 20 ms ticks create the
		// queueing that drives the latency curve.
		capacityRPS := 1500.0
		var lat telemetry.Sample
		done := func(l time.Duration, _ int) { lat.ObserveDuration(l) }
		workload.OpenLoop(s, workload.Constant(loadFrac*capacityRPS), 20*time.Millisecond, 10*time.Second, func() {
			mesh.Send(webRequest(), done)
		})
		s.RunUntil(10 * time.Second)
		istio := mesh.(*proxy.Istio)
		utils[k] = istio.ClientSidecar.Proc.UtilizationRange(0, 10*time.Second)
		means[k] = lat.Mean()
	})
	for k := range loads {
		out.Add("istio-sidecar", utils[k]*100, means[k]*1000)
	}
	out.Notes = append(out.Notes, "latency rises past ~45% utilization and spikes as the sidecar saturates, matching Fig 2's shape")
	return out
}

// Fig03SidecarGrowth replays a major customer's 2020-2022 growth: the
// per-pod sidecar count roughly doubles over two years (Fig 3).
func Fig03SidecarGrowth() *Series {
	out := &Series{ID: "fig3", Title: "#Sidecars for a major customer",
		XLabel: "month (0 = Jan 2020)", YLabel: "sidecars"}
	rng := rand.New(rand.NewSource(3))
	pods := 8000.0
	for month := 0; month <= 24; month++ {
		if month%3 == 0 {
			out.Add("sidecars", float64(month), float64(int(pods)))
		}
		// ~3% monthly growth with operational noise: doubles in ~24 months.
		pods *= 1.029 + 0.01*rng.Float64()
	}
	first := out.Lines[0].Y[0]
	last := out.Lines[0].Y[len(out.Lines[0].Y)-1]
	out.Notes = append(out.Notes, fmt.Sprintf("growth factor over 2 years: %.2fx (paper: ~2x)", last/first))
	return out
}

// buildTestCluster provisions a cluster with the given pod count spread over
// pods/15 nodes and pods/2 services (the paper's production ratios, §2.2).
func buildTestCluster(pods int) *cluster.Cluster {
	c := clusterWithCapacity()
	nodes := pods / 15
	if nodes < 1 {
		nodes = 1
	}
	services := pods / 2
	if services < 1 {
		services = 1
	}
	for i := 0; i < nodes; i++ {
		c.AddNode(fmt.Sprintf("n%d", i), "r1", "az1", cluster.Resources{MilliCPU: 1 << 30, MemMB: 1 << 30})
	}
	podsPerSvc := pods / services
	extra := pods - podsPerSvc*services
	for i := 0; i < services; i++ {
		name := fmt.Sprintf("svc%d", i)
		c.AddService(name, 80, 3)
		n := podsPerSvc
		if i < extra {
			n++
		}
		if _, err := c.SpreadPods(name, n, cluster.Resources{MilliCPU: 100, MemMB: 128}); err != nil {
			panic(err)
		}
	}
	return c
}

func clusterWithCapacity() *cluster.Cluster {
	tn, err := newTenant()
	if err != nil {
		panic(err)
	}
	return cluster.New("bench", tn)
}

// Fig04ControllerCPU pushes a full update at several cluster sizes and
// reports controller build CPU versus completion time: CPU grows with
// cluster size, and completion (I/O-bound pushing) grows even at fixed push
// CPU (Fig 4).
func Fig04ControllerCPU() *Series {
	out := &Series{ID: "fig4", Title: "Controller CPU usage and pod update time",
		XLabel: "pods", YLabel: "seconds"}
	for _, pods := range []int{200, 500, 1000, 2000, 3000} {
		c := buildTestCluster(pods)
		ctl := controlplane.New(controlplane.IstioModel, controlplane.DefaultSizing(), c)
		st := ctl.PushUpdate()
		out.Add("build-cpu", float64(pods), st.BuildCPU.Seconds())
		out.Add("completion", float64(pods), st.Completion.Seconds())
	}
	out.Notes = append(out.Notes, "completion time outgrows build CPU for larger clusters: pushing is I/O-bound (Fig 4)")
	return out
}

// Fig05IstioAmbientCPU drives the same diurnal workload through Istio and
// Ambient and reports user-side proxy CPU over the (compressed) day:
// Ambient's sharing helps, but because pods of one service peak together,
// the waypoint sees synchronized peaks and the saving is bounded (Fig 5).
// The two architectures run as parallel simulations.
func Fig05IstioAmbientCPU(ctx context.Context) *Series {
	out := &Series{ID: "fig5", Title: "CPU usage of Istio and Ambient",
		XLabel: "hour of day", YLabel: "proxy CPU (core-seconds per hour)"}
	// A compressed day: 24 hours of 10 simulated seconds each.
	const hourLen = 10 * time.Second
	day := 24 * hourLen
	archs := []string{"istio", "ambient"}
	busy := make([][24]float64, len(archs))
	ForEachPoint(ctx, len(archs), func(k int) {
		arch := archs[k]
		s := sim.New(5)
		cfg := newComparisonCfg(s)
		mesh, err := proxy.DefaultTestbedSpec(cfg).Build(arch)
		if err != nil {
			panic(err)
		}
		rate := workload.Sinusoid(600, 500, day, 0)
		workload.OpenLoop(s, rate, 10*time.Millisecond, day, func() {
			mesh.Send(webRequest(), func(time.Duration, int) {})
		})
		s.RunUntil(day)
		for h := range busy[k] {
			from, to := time.Duration(h)*hourLen, time.Duration(h+1)*hourLen
			for _, p := range mesh.UserProcs() {
				busy[k][h] += p.UtilizationRange(from, to) * float64(p.Cores()) * hourLen.Seconds()
			}
		}
	})
	for k, arch := range archs {
		for h, b := range busy[k] {
			out.Add(arch, float64(h), b)
		}
	}
	istioPeak, ambientPeak := maxY(out.Get("istio")), maxY(out.Get("ambient"))
	out.Notes = append(out.Notes,
		fmt.Sprintf("peak proxy CPU: istio %.1f vs ambient %.1f core-s/h; peaks coincide in time (synchronized workloads limit peak shaving)", istioPeak, ambientPeak))
	return out
}

func maxY(l *Line) float64 {
	var m float64
	for _, y := range l.Y {
		if y > m {
			m = y
		}
	}
	return m
}

// Tab01SidecarResources reproduces Table 1: aggregate sidecar resource bills
// for five production cluster profiles.
func Tab01SidecarResources() *Table {
	t := &Table{ID: "table1", Title: "Resource usage of Istio in production",
		Headers: []string{"Nodes", "Pods", "Sidecar CPU (cores)", "CPU share", "Sidecar Mem (GB)", "Mem share"}}
	cases := []struct {
		nodes, pods          int
		sidecarCPUm          int // millicores per sidecar
		sidecarMemMB         int
		nodeCores, nodeMemGB int
	}{
		{500, 15000, 100, 341, 30, 100}, // paper: 1500 cores (10%), 5000GB (10%)
		{200, 8000, 125, 150, 64, 120},  // paper: 1000 cores (8%), 1200GB (5%)
		{100, 1000, 32, 150, 8, 30},     // paper: 32 cores (4%), 150GB (5%)
		{60, 2000, 200, 150, 64, 83},    // paper: 400 cores (10%), 300GB (6%)
		{60, 400, 375, 750, 8, 20},      // paper: 150 cores (30%), 300GB (25%)
	}
	for _, c := range cases {
		r := controlplane.SidecarResources(c.pods, cluster.Resources{MilliCPU: c.sidecarCPUm, MemMB: c.sidecarMemMB})
		cores := float64(r.MilliCPU) / 1000
		memGB := float64(r.MemMB) / 1024
		cpuShare := cores / float64(c.nodes*c.nodeCores) * 100
		memShare := memGB / float64(c.nodes*c.nodeMemGB) * 100
		t.AddRow(c.nodes, c.pods, fmt.Sprintf("%.0f", cores), fmt.Sprintf("%.0f%%", cpuShare),
			fmt.Sprintf("%.0f", memGB), fmt.Sprintf("%.0f%%", memShare))
	}
	t.Notes = append(t.Notes, "paper row 1: 1500 cores / 10%, 5000GB / 10%")
	return t
}

// Tab02UpdateFrequency reproduces Table 2: update frequency grows with
// cluster size because larger clusters host more independently-updating
// services.
func Tab02UpdateFrequency() *Table {
	t := &Table{ID: "table2", Title: "Configuration update frequency by cluster",
		Headers: []string{"Nodes", "Pods", "Services (pods/2)", "Updates/min"}}
	cases := []struct {
		nodes, pods string
		services    int
		perSvcRate  float64
	}{
		{"3-10", "100-500", 150, 0.02},
		{"30-60", "700-1100", 450, 0.033},
		{"100-300", "1500-3000", 1125, 0.049},
	}
	for _, c := range cases {
		t.AddRow(c.nodes, c.pods, c.services, fmt.Sprintf("%.0f", controlplane.UpdateFrequency(c.services, c.perSvcRate)))
	}
	t.Notes = append(t.Notes, "paper ranges: 1-5, 10-20, 40-70 updates/min")
	return t
}

// Tab03L7Adoption reproduces Table 3 with a synthetic tenant-policy census:
// the decisive observation is that 80-95% of tenants configure L7 rules, so
// an L4-only mesh is insufficient (§2.2).
func Tab03L7Adoption() *Table {
	t := &Table{ID: "table3", Title: "Proportion of users enabling L7 features by region",
		Headers: []string{"Region", "L7", "L7 routing", "L7 security"}}
	regions := []struct {
		name                string
		pL7, pRouting, pSec float64
		tenants             int
	}{
		{"Region1", 0.95, 0.95, 0.29, 2000},
		{"Region2", 0.93, 0.93, 0.33, 1500},
		{"Region3", 0.90, 0.86, 0.27, 1800},
		{"Region4", 0.80, 0.72, 0.40, 900},
		{"Region5", 0.88, 0.80, 0.53, 1200},
	}
	for i, r := range regions {
		rng := rand.New(rand.NewSource(int64(i) + 100))
		var l7n, routing, security int
		for k := 0; k < r.tenants; k++ {
			hasRouting := rng.Float64() < r.pRouting
			hasSecurity := rng.Float64() < r.pSec
			// A tenant "uses L7" if it configured any L7 rule; calibrate
			// the remainder as other L7 features (fault injection, etc.).
			hasOther := rng.Float64() < (r.pL7-r.pRouting)/(1-r.pRouting+1e-9)
			if hasRouting || hasSecurity && hasOther || hasOther {
				l7n++
			}
			if hasRouting {
				routing++
			}
			if hasSecurity {
				security++
			}
		}
		pct := func(n int) string { return fmt.Sprintf("%.0f%%", float64(n)/float64(r.tenants)*100) }
		t.AddRow(r.name, pct(l7n), pct(routing), pct(security))
	}
	t.Notes = append(t.Notes, "majority of tenants (80-95%) enable L7; routing is the most common policy")
	return t
}

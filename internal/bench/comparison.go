package bench

import (
	"context"
	"fmt"
	"time"

	"canalmesh/internal/controlplane"
	"canalmesh/internal/netmodel"
	"canalmesh/internal/proxy"
	"canalmesh/internal/sim"
	"canalmesh/internal/telemetry"
	"canalmesh/internal/workload"
)

// Fig10LightLatency measures end-to-end latency under light load (1
// connection, 1 RPS, 100 requests) for the four architectures (Fig 10).
// Each architecture runs its own seeded simulator, so the four runs execute
// concurrently and assemble into the same rows a serial loop would produce.
func Fig10LightLatency(ctx context.Context) *Table {
	t := &Table{ID: "fig10", Title: "Latency under light workloads",
		Headers: []string{"Architecture", "Mean latency (ms)", "vs no-mesh"}}
	archs := proxy.Architectures()
	means := make([]float64, len(archs))
	ForEachPoint(ctx, len(archs), func(k int) {
		s := sim.New(10)
		cfg := newComparisonCfg(s)
		mesh, err := proxy.DefaultTestbedSpec(cfg).Build(archs[k])
		if err != nil {
			panic(err)
		}
		var sample telemetry.Sample
		for i := 0; i < 100; i++ {
			at := time.Duration(i) * time.Second
			s.At(at, func() {
				mesh.Send(webRequest(), func(l time.Duration, _ int) { sample.ObserveDuration(l) })
			})
		}
		s.Run()
		means[k] = sample.Mean() * 1000
	})
	lat := map[string]float64{}
	for k, arch := range archs {
		lat[arch] = means[k]
	}
	for _, arch := range archs {
		t.AddRow(arch, fmt.Sprintf("%.3f", lat[arch]), fmt.Sprintf("%.2fx", lat[arch]/lat["none"]))
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("istio/canal = %.2fx (paper 1.7x), ambient/canal = %.2fx (paper 1.3x)",
			lat["istio"]/lat["canal"], lat["ambient"]/lat["canal"]))
	return t
}

// Fig11ThroughputKnee sweeps offered RPS per architecture with 100
// closed-loop-style connections and reports P99 latency; the knee (latency
// blow-up point) is each architecture's throughput (Fig 11). The 27
// (architecture, RPS) points are independent seeded simulations run through
// ForEachPoint; assembly stays in serial sweep order.
func Fig11ThroughputKnee(ctx context.Context) *Series {
	out := &Series{ID: "fig11", Title: "P99 latency under changing workloads",
		XLabel: "offered RPS", YLabel: "P99 latency (ms)"}
	archs := []string{"canal", "ambient", "istio"}
	rpss := []float64{250, 500, 1000, 1500, 2000, 3000, 4500, 6000, 8000}
	p99s := make([]float64, len(archs)*len(rpss))
	ForEachPoint(ctx, len(p99s), func(k int) {
		arch, rps := archs[k/len(rpss)], rpss[k%len(rpss)]
		s := sim.New(11)
		cfg := newComparisonCfg(s)
		spec := proxy.DefaultTestbedSpec(cfg)
		spec.AppCores = 64
		mesh, err := spec.Build(arch)
		if err != nil {
			panic(err)
		}
		var lat telemetry.Sample
		completed := 0
		done := func(l time.Duration, _ int) {
			lat.ObserveDuration(l)
			completed++
		}
		workload.OpenLoop(s, workload.Constant(rps), 5*time.Millisecond, 2*time.Second, func() {
			mesh.Send(webRequest(), done)
		})
		s.RunUntil(2 * time.Second)
		p99s[k] = lat.Percentile(99) * 1000
	})
	knee := map[string]float64{}
	for i, arch := range archs {
		for j, rps := range rpss {
			p99 := p99s[i*len(rpss)+j]
			out.Add(arch, rps, p99)
			// The knee: highest offered rate where P99 stays under 20 ms.
			if p99 < 20 && rps > knee[arch] {
				knee[arch] = rps
			}
		}
	}
	out.Notes = append(out.Notes, fmt.Sprintf(
		"throughput knees: canal %.0f, ambient %.0f, istio %.0f RPS -> canal/istio %.1fx (paper 12.3x), canal/ambient %.1fx (paper 2.3x)",
		knee["canal"], knee["ambient"], knee["istio"], knee["canal"]/knee["istio"], knee["canal"]/knee["ambient"]))
	return out
}

// Fig12CryptoOffloadCPU measures on-node proxy CPU utilization for an HTTPS
// new-session workload with no offload, local accelerated offload, and
// remote key-server offload (Fig 12). The 12 (policy, RPS) points run as a
// parallel sweep over independent seeded simulations.
func Fig12CryptoOffloadCPU(ctx context.Context) *Series {
	out := &Series{ID: "fig12", Title: "On-node proxy CPU with crypto offloading",
		XLabel: "new HTTPS sessions/s", YLabel: "proxy CPU utilization (%)"}
	costs := netmodel.Default()
	policies := map[string]proxy.AsymPolicy{
		"no-offload":     proxy.LocalSoftwareAsym(costs),
		"local-offload":  proxy.LocalAcceleratedAsym(costs, 16),
		"remote-offload": proxy.RemoteKeyServerAsym(costs),
	}
	names := []string{"no-offload", "local-offload", "remote-offload"}
	rpss := []float64{50, 100, 200, 400}
	utils := make([]float64, len(names)*len(rpss))
	ForEachPoint(ctx, len(utils), func(k int) {
		name, rps := names[k/len(rpss)], rpss[k%len(rpss)]
		s := sim.New(12)
		cfg := newComparisonCfg(s)
		cfg.Asym = policies[name]
		mesh, err := proxy.DefaultTestbedSpec(cfg).Build("canal")
		if err != nil {
			panic(err)
		}
		// Established-session background traffic (symmetric crypto
		// only) rides alongside the swept handshake rate, so the
		// asymmetric share of proxy CPU matches a production mix.
		workload.OpenLoop(s, workload.Constant(2000), 5*time.Millisecond, 5*time.Second, func() {
			r := webRequest()
			r.TLS = true
			r.BodyBytes = 16 * 1024
			mesh.Send(r, func(time.Duration, int) {})
		})
		workload.OpenLoop(s, workload.Constant(rps), 5*time.Millisecond, 5*time.Second, func() {
			r := webRequest()
			r.TLS = true
			r.NewConnection = true
			mesh.Send(r, func(time.Duration, int) {})
		})
		s.RunUntil(5 * time.Second)
		canal := mesh.(*proxy.Canal)
		utils[k] = canal.ClientNode.Proc.UtilizationRange(0, 5*time.Second)
	})
	for i, name := range names {
		for j, rps := range rpss {
			out.Add(name, rps, utils[i*len(rpss)+j]*100)
		}
	}
	no := out.Get("no-offload").Y
	loc := out.Get("local-offload").Y
	rem := out.Get("remote-offload").Y
	last := len(no) - 1
	out.Notes = append(out.Notes, fmt.Sprintf(
		"CPU saving at %0.f sessions/s: local %.0f%%, remote %.0f%% (paper: 43-70%% and 62-70%%)",
		400.0, (1-loc[last]/no[last])*100, (1-rem[last]/no[last])*100))
	return out
}

// Fig13CPUComparison reports user-side CPU core usage under a shared
// workload sweep for the three meshes plus Canal's cloud-side gateway share
// (Fig 13). The 12 (architecture, RPS) points run as a parallel sweep.
func Fig13CPUComparison(ctx context.Context) *Series {
	out := &Series{ID: "fig13", Title: "CPU core usage of Istio, Ambient and Canal",
		XLabel: "offered RPS", YLabel: "CPU cores used"}
	dur := 5 * time.Second
	archs := []string{"istio", "ambient", "canal"}
	rpss := []float64{200, 400, 800, 1200}
	type cores struct{ user, cloud float64 }
	pts := make([]cores, len(archs)*len(rpss))
	ForEachPoint(ctx, len(pts), func(k int) {
		arch, rps := archs[k/len(rpss)], rpss[k%len(rpss)]
		s := sim.New(13)
		cfg := newComparisonCfg(s)
		mesh, err := proxy.DefaultTestbedSpec(cfg).Build(arch)
		if err != nil {
			panic(err)
		}
		workload.OpenLoop(s, workload.Constant(rps), 5*time.Millisecond, dur, func() {
			mesh.Send(webRequest(), func(time.Duration, int) {})
		})
		s.RunUntil(dur)
		for _, p := range mesh.UserProcs() {
			pts[k].user += p.UtilizationRange(0, dur) * float64(p.Cores())
		}
		for _, p := range mesh.CloudProcs() {
			pts[k].cloud += p.UtilizationRange(0, dur) * float64(p.Cores())
		}
	})
	for i, arch := range archs {
		for j, rps := range rpss {
			pt := pts[i*len(rpss)+j]
			out.Add(arch+" (user)", rps, pt.user)
			if arch == "canal" {
				out.Add("canal (total)", rps, pt.user+pt.cloud)
			}
		}
	}
	iu, au, cu := out.Get("istio (user)").Y, out.Get("ambient (user)").Y, out.Get("canal (user)").Y
	last := len(cu) - 1
	out.Notes = append(out.Notes, fmt.Sprintf(
		"user CPU at peak: istio/canal = %.1fx (paper 12-19x), ambient/canal = %.1fx (paper 4.6-7.2x)",
		iu[last]/cu[last], au[last]/cu[last]))
	return out
}

// Fig14ConfigCompletion reports the configuration completion time after
// creating N pods under each control-plane model (Fig 14).
func Fig14ConfigCompletion() *Series {
	out := &Series{ID: "fig14", Title: "P90 configuration completion time",
		XLabel: "pods created", YLabel: "completion (s)"}
	for _, n := range []int{100, 200, 300, 400, 500} {
		c := buildTestCluster(n) // the cluster after creating n pods
		for _, model := range []controlplane.Model{controlplane.IstioModel, controlplane.AmbientModel, controlplane.CanalModel} {
			ctl := controlplane.New(model, controlplane.DefaultSizing(), c)
			st := ctl.PushPodCreation(n)
			out.Add(model.String(), float64(n), st.Completion.Seconds())
		}
	}
	ist, amb, can := out.Get("istio").Y, out.Get("ambient").Y, out.Get("canal").Y
	last := len(can) - 1
	out.Notes = append(out.Notes, fmt.Sprintf(
		"at 500 pods: istio/canal = %.1fx (paper 1.5-2.1x), ambient/canal = %.1fx (paper 1.2-1.5x)",
		ist[last]/can[last], amb[last]/can[last]))
	return out
}

// Fig15SouthboundBandwidth reports the southbound bytes pushed for one
// routing-policy update under each model (Fig 15).
func Fig15SouthboundBandwidth() *Table {
	t := &Table{ID: "fig15", Title: "Southbound bandwidth during a routing update",
		Headers: []string{"Architecture", "Targets", "Bytes pushed", "vs canal"}}
	// The paper's testbed: 2 worker nodes, 30 pods, 3 services (§5.1).
	c := buildTestCluster(30)
	bytes := map[string]float64{}
	for _, model := range []controlplane.Model{controlplane.IstioModel, controlplane.AmbientModel, controlplane.CanalModel} {
		ctl := controlplane.New(model, controlplane.DefaultSizing(), c)
		st := ctl.PushUpdate()
		bytes[model.String()] = float64(st.Bytes)
		t.AddRow(model.String(), st.Targets, st.Bytes, "")
	}
	for i := range t.Rows {
		t.Rows[i][3] = fmt.Sprintf("%.1fx", bytes[t.Rows[i][0]]/bytes["canal"])
	}
	t.Notes = append(t.Notes, fmt.Sprintf(
		"istio/canal = %.1fx (paper 9.8x), ambient/canal = %.1fx (paper 4.6x)",
		bytes["istio"]/bytes["canal"], bytes["ambient"]/bytes["canal"]))
	return t
}

package bench

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"canalmesh/internal/beamer"
	"canalmesh/internal/cloud"
	"canalmesh/internal/keyserver"
	"canalmesh/internal/netmodel"
	"canalmesh/internal/proxy"
	"canalmesh/internal/redirect"
	"canalmesh/internal/sim"
	"canalmesh/internal/telemetry"
	"canalmesh/internal/units"
	"canalmesh/internal/workload"
)

// Fig21IptablesPath breaks down the per-packet cost of iptables redirection
// versus eBPF socket redirection (Fig 21's extra processing steps).
func Fig21IptablesPath() *Table {
	t := &Table{ID: "fig21", Title: "Per-packet redirection path costs (1 KB packet)",
		Headers: []string{"Mechanism", "Context switches", "Stack passes", "Bytes copied", "CPU"}}
	costs := netmodel.Default()
	for _, mode := range []redirect.Mode{redirect.Iptables, redirect.EBPF} {
		cpu, st := redirect.PerPacketCost(mode, 1024, costs)
		t.AddRow(mode.String(), st.ContextSwitches, st.StackPasses, st.CopiedBytes, cpu.String())
	}
	ip, _ := redirect.PerPacketCost(redirect.Iptables, 1024, costs)
	eb, _ := redirect.PerPacketCost(redirect.EBPF, 1024, costs)
	t.Notes = append(t.Notes, fmt.Sprintf("iptables costs %.1fx the eBPF path per packet", float64(ip)/float64(eb)))
	return t
}

// Fig22ContextSwitches reproduces Fig 22: for a 16-byte 4 kRPS stream, raw
// eBPF context-switches per packet (kernel bypass loses the kernel's Nagle
// aggregation); Canal's eBPF-side Nagle restores aggregation. This doubles
// as the Nagle ablation from DESIGN.md.
func Fig22ContextSwitches() *Table {
	t := &Table{ID: "fig22", Title: "Context switches, 16B packets @ 4kRPS for 1s",
		Headers: []string{"Path", "Context switches", "Deliveries to proxy", "CPU"}}
	costs := netmodel.Default()
	run := func(mode redirect.Mode, nagle bool) redirect.Stats {
		s := sim.New(22)
		r := redirect.NewRedirector(s, mode, nagle, costs)
		sent := 0
		s.Every(time.Second/4000, func() bool {
			r.Send(16)
			sent++
			return sent < 4000
		})
		s.Run()
		r.FlushPending()
		return r.Stats()
	}
	raw := run(redirect.EBPF, false)
	nagled := run(redirect.EBPF, true)
	ipt := run(redirect.Iptables, true)
	t.AddRow("eBPF (no aggregation)", raw.ContextSwitches, raw.Deliveries, raw.CPU.String())
	t.AddRow("eBPF + Nagle (Canal)", nagled.ContextSwitches, nagled.Deliveries, nagled.CPU.String())
	t.AddRow("iptables (kernel Nagle)", ipt.ContextSwitches, ipt.Deliveries, ipt.CPU.String())
	t.Notes = append(t.Notes, fmt.Sprintf(
		"raw eBPF context-switches %.0fx more than with Nagle — the Fig 22 anomaly and its fix",
		float64(raw.ContextSwitches)/float64(nagled.ContextSwitches)))
	return t
}

// asymBatchWall is the wall-clock time of one accelerated asymmetric batch
// in the appendix experiments (the paper reports ~1 ms local completion).
const asymBatchWall = time.Millisecond

// asymBatchTimeout is the configured batch-fill timeout (the hardware allows
// configuring it with a 1 ms minimum threshold, Appendix C).
const asymBatchTimeout = 1500 * time.Microsecond

// Fig23CryptoCompletion reproduces Fig 23: asymmetric-crypto completion time
// for remote offloading (stable ~RTT+batch regardless of load, since the
// shared key server always runs full batches), local offloading (fast only
// when the local batch fills), and no offloading (software, ~2 ms).
func Fig23CryptoCompletion() *Series {
	out := &Series{ID: "fig23", Title: "Crypto completion time vs workload",
		XLabel: "concurrent new sessions", YLabel: "completion (ms)"}
	costs := netmodel.Default()
	local := keyserver.CompletionModel{BatchSize: keyserver.AVXBatchSize, Timeout: asymBatchTimeout, BatchCost: asymBatchWall}
	remote := keyserver.CompletionModel{BatchSize: keyserver.AVXBatchSize, Timeout: asymBatchTimeout, BatchCost: asymBatchWall, RPCRoundTrip: costs.IntraAZRTT}
	for _, conc := range []int{1, 2, 4, 8, 16, 32, 64} {
		out.Add("local-offload", float64(conc), local.Complete(conc).Seconds()*1000)
		// The multi-tenant key server aggregates arrivals from everyone,
		// so its batches are full even when this requester is idle.
		out.Add("remote-offload", float64(conc), remote.Complete(keyserver.AVXBatchSize).Seconds()*1000)
		out.Add("no-offload", float64(conc), costs.AsymSoft.Seconds()*1000)
	}
	out.Notes = append(out.Notes,
		"remote completion is flat (~1.5ms; paper ~1.7ms); no-offload 2ms; local is 1ms only once its own batch fills")
	return out
}

// Fig24LatencyDistribution reproduces Fig 24: the end-to-end latency
// distribution of a production cluster is bimodal (40-50ms and 100-200ms
// application time), which makes the key server's ~0.7ms and the hairpin's
// sub-ms detour negligible.
func Fig24LatencyDistribution() *Table {
	t := &Table{ID: "fig24", Title: "End-to-end latency distribution (production-like app times)",
		Headers: []string{"Bucket (ms)", "Share"}}
	rng := rand.New(rand.NewSource(24))
	costs := netmodel.Default()
	// Doubling bucket bounds from 10µs to ~167s; the last count is overflow.
	var bounds []float64
	for b := 10e-6; b < 200; b *= 2 {
		bounds = append(bounds, b)
	}
	counts := make([]int, len(bounds)+1)
	const requests = 20000
	meshOverhead := 2*costs.IntraAZRTT + 4*costs.GatewayL7Cost(1024) // hairpin + gateway work
	for i := 0; i < requests; i++ {
		var app time.Duration
		if rng.Float64() < 0.55 {
			app = 40*time.Millisecond + units.Nanos(rng.Int63n(int64(10*time.Millisecond)))
		} else {
			app = 100*time.Millisecond + units.Nanos(rng.Int63n(int64(100*time.Millisecond)))
		}
		counts[sort.SearchFloat64s(bounds, (app+meshOverhead).Seconds())]++
	}
	for i, c := range counts {
		if c == 0 {
			continue
		}
		lo := 0.0
		if i > 0 {
			lo = bounds[i-1] * 1000
		}
		hi := "inf"
		if i < len(bounds) {
			hi = trimFloat(bounds[i] * 1000)
		}
		t.AddRow(fmt.Sprintf("%s-%s", trimFloat(lo), hi), fmt.Sprintf("%.1f%%", float64(c)/requests*100))
	}
	t.Notes = append(t.Notes, fmt.Sprintf(
		"mesh adds %.2fms against 40-200ms app times: hairpin and key-server detours are negligible (Appendix A)",
		meshOverhead.Seconds()*1000))
	return t
}

// Fig25BatchDegradation reproduces Fig 25: local AVX-512 acceleration
// degrades below 8 concurrent new connections because partial batches stall
// on the fill timeout, becoming worse than unaccelerated software crypto.
func Fig25BatchDegradation() *Series {
	out := &Series{ID: "fig25", Title: "AVX-512 completion vs concurrent new connections",
		XLabel: "concurrent new connections", YLabel: "completion (ms)"}
	costs := netmodel.Default()
	local := keyserver.CompletionModel{BatchSize: keyserver.AVXBatchSize, Timeout: asymBatchTimeout, BatchCost: asymBatchWall}
	crossover := 0
	for conc := 1; conc <= 16; conc++ {
		accel := local.Complete(conc)
		out.Add("avx512", float64(conc), accel.Seconds()*1000)
		out.Add("software", float64(conc), costs.AsymSoft.Seconds()*1000)
		if accel < costs.AsymSoft && crossover == 0 {
			crossover = conc
		}
	}
	out.Notes = append(out.Notes, fmt.Sprintf(
		"acceleration beats software only from %d concurrent connections (paper: 8, the AVX-512 batch size)", crossover))
	return out
}

// Fig26SessionConsistency replays the Appendix C case: replica IP2 is about
// to go offline; existing flows keep landing on IP2 via the redirector
// chain while new flows insert at the replacement, until IP2's flows age
// out and it is removed.
func Fig26SessionConsistency() *Table {
	t := &Table{ID: "fig26", Title: "Session consistency during replica offline",
		Headers: []string{"Phase", "Old flows on IP2", "New flows on IP2", "Resets"}}
	b, err := beamer.New("svc", []string{"ip1", "ip2", "ip3"}, 64, 4)
	if err != nil {
		panic(err)
	}
	mkFlow := func(p int) cloud.SessionKey {
		return cloud.SessionKey{SrcIP: "10.2.0.9", SrcPort: uint16(p), DstIP: "10.3.0.1", DstPort: 443, Proto: 6}
	}
	// Establish 300 flows; remember IP2's.
	var onIP2 []cloud.SessionKey
	for p := 1; p <= 300; p++ {
		res, err := b.Process(mkFlow(p), true)
		if err != nil {
			panic(err)
		}
		if res.ServedBy == "ip2" {
			onIP2 = append(onIP2, mkFlow(p))
		}
	}
	t.AddRow("before drain", len(onIP2), "-", 0)

	if err := b.Drain("ip2"); err != nil {
		panic(err)
	}
	// Old flows still reach IP2; new flows avoid it.
	oldOnIP2, resets := 0, 0
	for _, k := range onIP2 {
		res, err := b.Process(k, false)
		if err != nil {
			resets++
		} else if res.ServedBy == "ip2" {
			oldOnIP2++
		}
	}
	newOnIP2 := 0
	for p := 1000; p < 1300; p++ {
		res, err := b.Process(mkFlow(p), true)
		if err != nil {
			panic(err)
		}
		if res.ServedBy == "ip2" {
			newOnIP2++
		}
	}
	t.AddRow("draining", oldOnIP2, newOnIP2, resets)

	// Flows age out; IP2 can be removed safely.
	for _, k := range onIP2 {
		b.EndFlow(k)
	}
	if err := b.Remove("ip2"); err != nil {
		panic(err)
	}
	t.AddRow("after removal", 0, 0, 0)
	t.Notes = append(t.Notes, fmt.Sprintf(
		"all %d pre-drain flows stayed on IP2 with 0 resets; 0 new flows landed on it (Fig 26)", oldOnIP2))
	return t
}

// testbedSoftAsym is the software asymmetric-crypto cost on the TESTBED's
// own CPU (Xeon 8269CY) for the Fig 27/28 comparison — cheaper than the
// old-CPU AsymSoft used elsewhere, which is why the paper's improvement is
// 1.6-1.8x rather than an order of magnitude.
func testbedSoftAsym() (time.Duration, time.Duration) {
	return 300 * time.Microsecond, 0
}

// offloadRun measures throughput and P90 latency of the Canal testbed under
// an all-new-connection HTTPS workload with a given asym policy and node
// cores.
func offloadRun(policy proxy.AsymPolicy, nodeCores int, rps float64) (throughput float64, p90ms float64) {
	s := sim.New(27)
	cfg := newComparisonCfg(s)
	cfg.Asym = policy
	spec := proxy.DefaultTestbedSpec(cfg)
	spec.AppCores = 64
	spec.GatewayCores = 8 // keep the gateway off the critical path here
	spec.NodeCores = nodeCores
	mesh, err := spec.Build("canal")
	if err != nil {
		panic(err)
	}
	var lat telemetry.Sample
	completed := 0
	dur := 2 * time.Second
	done := func(l time.Duration, _ int) {
		completed++
		lat.ObserveDuration(l)
	}
	workload.OpenLoop(s, workload.Constant(rps), 5*time.Millisecond, dur, func() {
		r := webRequest()
		r.TLS = true
		r.NewConnection = true
		mesh.Send(r, done)
	})
	// Let the queues drain fully: completions over the drain horizon give
	// the bottleneck's sustainable throughput even past saturation.
	s.Run()
	return float64(completed) / s.Now().Seconds(), lat.Percentile(90) * 1000
}

// Fig27OffloadThroughput reproduces Fig 27: HTTPS short-flow throughput with
// key-server offloading vs local software crypto, across node-proxy cores.
// The six (cores, policy) testbed runs are independent simulations executed
// as a parallel sweep.
func Fig27OffloadThroughput(ctx context.Context) *Series {
	out := &Series{ID: "fig27", Title: "Throughput with crypto offloading (HTTPS short flows)",
		XLabel: "node proxy cores", YLabel: "requests/s"}
	costs := netmodel.Default()
	coreCounts := []int{1, 2, 4}
	// Even k: offload; odd k: software baseline for the same core count.
	thr := make([]float64, 2*len(coreCounts))
	ForEachPoint(ctx, len(thr), func(k int) {
		cores := coreCounts[k/2]
		policy := proxy.RemoteKeyServerAsym(costs)
		if k%2 == 1 {
			policy = testbedSoftAsym
		}
		thr[k], _ = offloadRun(policy, cores, 20_000)
	})
	var ratios []float64
	for i, cores := range coreCounts {
		withOff, without := thr[2*i], thr[2*i+1]
		out.Add("offload", float64(cores), withOff)
		out.Add("no-offload", float64(cores), without)
		ratios = append(ratios, withOff/without)
	}
	out.Notes = append(out.Notes, fmt.Sprintf(
		"throughput improvement %.1fx-%.1fx (paper: 1.6-1.8x)", minF(ratios), maxF(ratios)))
	return out
}

// Fig28OffloadLatency reproduces Fig 28: P90 latency reduction from
// key-server offloading as the offered RPS grows. The eight (RPS, policy)
// testbed runs execute as a parallel sweep.
func Fig28OffloadLatency(ctx context.Context) *Series {
	out := &Series{ID: "fig28", Title: "P90 latency with crypto offloading (HTTPS short flows)",
		XLabel: "offered RPS", YLabel: "P90 latency (ms)"}
	costs := netmodel.Default()
	rpss := []float64{800, 1500, 2200, 2600}
	// Even k: offload; odd k: software baseline for the same offered RPS.
	p90 := make([]float64, 2*len(rpss))
	ForEachPoint(ctx, len(p90), func(k int) {
		policy := proxy.RemoteKeyServerAsym(costs)
		if k%2 == 1 {
			policy = testbedSoftAsym
		}
		_, p90[k] = offloadRun(policy, 1, rpss[k/2])
	})
	var cuts []float64
	for i, rps := range rpss {
		with, without := p90[2*i], p90[2*i+1]
		out.Add("offload", rps, with)
		out.Add("no-offload", rps, without)
		cuts = append(cuts, 1-with/without)
	}
	out.Notes = append(out.Notes, fmt.Sprintf(
		"latency reduction %.0f%%-%.0f%%, growing with RPS as the proxy nears exhaustion (paper: 53-60%%)",
		minF(cuts)*100, maxF(cuts)*100))
	return out
}

// Fig29EBPFThroughput reproduces Fig 29: redirection throughput by packet
// size, eBPF vs iptables (both with Nagle enabled).
func Fig29EBPFThroughput() *Series {
	out := &Series{ID: "fig29", Title: "Redirection throughput by packet size",
		XLabel: "packet size (bytes)", YLabel: "packets/s per core"}
	costs := netmodel.Default()
	var ratios []float64
	for _, size := range []int{500, 1500, 4000, 16000} {
		ip, _ := redirect.PerPacketCost(redirect.Iptables, size, costs)
		eb, _ := redirect.PerPacketCost(redirect.EBPF, size, costs)
		out.Add("iptables", float64(size), 1/ip.Seconds())
		out.Add("eBPF", float64(size), 1/eb.Seconds())
		ratios = append(ratios, ip.Seconds()/eb.Seconds())
	}
	out.Notes = append(out.Notes, fmt.Sprintf(
		"eBPF throughput %.1fx-%.1fx of iptables, larger packets benefiting most (paper: 1.3x-2.3x)",
		minF(ratios), maxF(ratios)))
	return out
}

// Fig30EBPFLatency reproduces Fig 30: per-packet redirection latency by
// packet size; iptables runs 1.5-1.8x the eBPF latency, with low
// sensitivity to size.
func Fig30EBPFLatency() *Series {
	out := &Series{ID: "fig30", Title: "Redirection latency by packet size",
		XLabel: "packet size (bytes)", YLabel: "latency (µs)"}
	costs := netmodel.Default()
	var ratios []float64
	for _, size := range []int{500, 1500, 4000} {
		ip, _ := redirect.PerPacketCost(redirect.Iptables, size, costs)
		eb, _ := redirect.PerPacketCost(redirect.EBPF, size, costs)
		out.Add("iptables", float64(size), float64(ip.Microseconds()))
		out.Add("eBPF", float64(size), float64(eb.Microseconds()))
		ratios = append(ratios, float64(ip)/float64(eb))
	}
	out.Notes = append(out.Notes, fmt.Sprintf(
		"iptables latency %.1fx-%.1fx of eBPF (paper: 1.5x-1.8x)", minF(ratios), maxF(ratios)))
	return out
}

func minF(v []float64) float64 {
	m := v[0]
	for _, x := range v[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

func maxF(v []float64) float64 {
	m := v[0]
	for _, x := range v[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

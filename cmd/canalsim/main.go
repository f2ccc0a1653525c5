// Command canalsim runs named cloud-scale scenarios of the Canal Mesh
// simulation and narrates what happens:
//
//	canalsim noisy-neighbor   # surge, alert, precise scaling (Fig 16)
//	canalsim failover         # replica/backend/AZ failure recovery (Fig 8)
//	canalsim attack           # session-flood detection and lossy migration (§6.2)
//	canalsim scatter          # in-phase service scattering (§6.3)
//	canalsim flash-crowd      # admission control off vs on under a 5x crowd
//	canalsim trace            # per-hop latency breakdown from distributed traces
//	canalsim config-churn     # delta vs full config push under region-scale churn
//	canalsim policy-scale     # compiled intention dispatch tables, 10^3 -> 10^6 rules
//	canalsim federation       # region evacuation spillover + partitioned-region split-brain
//
// The trace, config-churn, policy-scale, and federation scenarios take flags:
//
//	canalsim trace -arch canal -arch istio -requests 200 -seed 42 -json out.json
//	canalsim config-churn -nodes 1000 -services 60 -pods 25 -window 90s -debounce 2s -seed 42 -json BENCH_configpush.json
//	canalsim policy-scale -max-rules 1000000 -queries 4096 -batch 64 -seed 42 -json BENCH_policy.json
//	canalsim federation -regions 3 -heartbeat 1s -fail-after 3 -seed 7 -json BENCH_federation.json
package main

import (
	"context"
	"flag"
	"fmt"
	"math"
	"net/netip"
	"os"
	"time"

	"canalmesh/internal/anomaly"
	"canalmesh/internal/bench"
	"canalmesh/internal/cloud"
	"canalmesh/internal/gateway"
	"canalmesh/internal/l7"
	"canalmesh/internal/netmodel"
	"canalmesh/internal/proxy"
	"canalmesh/internal/sim"
	"canalmesh/internal/workload"
)

func main() {
	if len(os.Args) < 2 {
		fmt.Println("usage: canalsim <noisy-neighbor|failover|attack|scatter|flash-crowd|trace|config-churn|policy-scale|federation>")
		os.Exit(2)
	}
	switch os.Args[1] {
	case "noisy-neighbor":
		fmt.Println(bench.Fig16NoisyNeighbor().String())
	case "flash-crowd":
		fmt.Println(bench.AdmissionFlashCrowd(context.Background()).String())
	case "failover":
		failover()
	case "attack":
		attack()
	case "scatter":
		scatter()
	case "trace":
		traceCmd(os.Args[2:])
	case "config-churn":
		configChurnCmd(os.Args[2:])
	case "policy-scale":
		policyScaleCmd(os.Args[2:])
	case "federation":
		federationCmd(os.Args[2:])
	default:
		fmt.Fprintf(os.Stderr, "canalsim: unknown scenario %q\n", os.Args[1])
		os.Exit(2)
	}
}

// configChurnCmd runs the region-scale config-churn scenario — a rolling
// deploy plus background pod churn pushed through the configpush
// distributor under all three architectures, delta and full-push —
// printing the comparison table and optionally exporting the JSON report
// (the BENCH_configpush.json artifact).
func configChurnCmd(args []string) {
	fs := flag.NewFlagSet("config-churn", flag.ExitOnError)
	spec := bench.DefaultConfigChurnSpec()
	fs.IntVar(&spec.Nodes, "nodes", spec.Nodes, "worker nodes in the simulated region")
	fs.IntVar(&spec.Services, "services", spec.Services, "tenant services")
	fs.IntVar(&spec.PodsPerService, "pods", spec.PodsPerService, "replicas per service")
	fs.IntVar(&spec.RollingServices, "rolling", spec.RollingServices, "services undergoing a rolling deploy")
	fs.DurationVar(&spec.ChurnWindow, "window", spec.ChurnWindow, "churn window (sim time)")
	fs.DurationVar(&spec.Debounce, "debounce", spec.Debounce, "control-plane coalescing window")
	fs.Int64Var(&spec.Seed, "seed", spec.Seed, "simulation seed")
	jsonPath := fs.String("json", "", "write the JSON report to this file")
	fs.Parse(args)
	if spec.RollingServices > spec.Services {
		spec.RollingServices = spec.Services
	}
	table, rep := bench.ConfigChurnResult(context.Background(), spec)
	fmt.Print(table.String())
	if *jsonPath != "" {
		data, err := rep.JSON()
		if err != nil {
			fmt.Fprintf(os.Stderr, "canalsim: %v\n", err)
			os.Exit(1)
		}
		if err := os.WriteFile(*jsonPath, data, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "canalsim: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote JSON report to %s\n", *jsonPath)
	}
}

// policyScaleCmd sweeps the compiled policy dispatch table from 10^3 to
// -max-rules rules: lookup cost, full vs incremental recompile time, and
// policy-push convergence under churn. The deterministic table prints to
// stdout; wall-clock timings land only in the JSON report (the
// BENCH_policy.json artifact).
func policyScaleCmd(args []string) {
	fs := flag.NewFlagSet("policy-scale", flag.ExitOnError)
	spec := bench.DefaultPolicyScaleSpec()
	maxRules := fs.Int("max-rules", spec.Scales[len(spec.Scales)-1], "top of the rule-count sweep (decades from 1000)")
	fs.IntVar(&spec.Queries, "queries", spec.Queries, "lookup sample size per scale")
	fs.IntVar(&spec.IncrementalBatch, "batch", spec.IncrementalBatch, "intention changes per incremental Apply measurement")
	fs.IntVar(&spec.BaselineCap, "baseline-cap", spec.BaselineCap, "largest scale to run the linear-scan oracle at")
	fs.IntVar(&spec.ChurnMutations, "mutations", spec.ChurnMutations, "policy mutations in the push-convergence section")
	fs.DurationVar(&spec.Debounce, "debounce", spec.Debounce, "control-plane coalescing window")
	fs.Int64Var(&spec.Seed, "seed", spec.Seed, "corpus and simulation seed")
	jsonPath := fs.String("json", "", "write the JSON report to this file")
	fs.Parse(args)
	spec.Scales = nil
	for n := 1000; n <= *maxRules; n *= 10 {
		spec.Scales = append(spec.Scales, n)
	}
	if len(spec.Scales) == 0 {
		spec.Scales = []int{*maxRules}
	}
	table, rep := bench.PolicyScaleResult(context.Background(), spec)
	fmt.Print(table.String())
	for _, row := range rep.Rows {
		if row.LookupNS > 0 {
			fmt.Printf("%8d rules: lookup %7.0f ns/op, full compile %8.1f ms, incremental(%d) %6.2f ms",
				row.Rules, row.LookupNS, row.FullCompileMS, spec.IncrementalBatch, row.IncrementalMS)
			if row.BaselineNS > 0 {
				fmt.Printf(", linear baseline %9.0f ns/op", row.BaselineNS)
			}
			fmt.Println()
		}
	}
	if rep.FlatnessRatio > 0 {
		fmt.Printf("lookup flatness %.2fx across the sweep (linear baseline grew %.0fx to %d rules); incremental recompile %.0fx cheaper than full\n",
			rep.FlatnessRatio, rep.BaselineGrowth, rep.BaselineCap, rep.IncrementalSpeedup)
	}
	if *jsonPath != "" {
		data, err := rep.JSON()
		if err != nil {
			fmt.Fprintf(os.Stderr, "canalsim: %v\n", err)
			os.Exit(1)
		}
		if err := os.WriteFile(*jsonPath, data, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "canalsim: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote JSON report to %s\n", *jsonPath)
	}
}

// federationCmd runs both multi-region federation experiments — the
// region-evacuation spillover grid and the partitioned-region split-brain
// timeline — printing their tables and optionally exporting the combined
// JSON report (the BENCH_federation.json artifact).
func federationCmd(args []string) {
	fs := flag.NewFlagSet("federation", flag.ExitOnError)
	spec := bench.DefaultFederationSpec()
	fs.IntVar(&spec.Regions, "regions", spec.Regions, "regions in the evacuation federation")
	fs.IntVar(&spec.BackendsPerRegion, "backends", spec.BackendsPerRegion, "gateway backends per region")
	fs.DurationVar(&spec.Heartbeat, "heartbeat", spec.Heartbeat, "peering keepalive / export-refresh interval")
	fs.IntVar(&spec.FailAfter, "fail-after", spec.FailAfter, "missed heartbeats before a peering is down")
	fs.Float64Var(&spec.SpillGate, "spill-gate", spec.SpillGate, "local-health threshold below which spillover engages")
	fs.Int64Var(&spec.Seed, "seed", spec.Seed, "simulation seed")
	jsonPath := fs.String("json", "", "write the JSON report to this file")
	fs.Parse(args)
	evac, split, rep := bench.FederationResult(context.Background(), spec)
	fmt.Print(evac.String())
	fmt.Println()
	fmt.Print(split.String())
	if *jsonPath != "" {
		data, err := rep.JSON()
		if err != nil {
			fmt.Fprintf(os.Stderr, "canalsim: %v\n", err)
			os.Exit(1)
		}
		if err := os.WriteFile(*jsonPath, data, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "canalsim: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote JSON report to %s\n", *jsonPath)
	}
}

// archList is a repeatable -arch flag.
type archList []string

func (a *archList) String() string { return fmt.Sprint([]string(*a)) }

func (a *archList) Set(v string) error {
	*a = append(*a, v)
	return nil
}

// traceCmd runs the tracing experiment and prints one per-hop latency
// breakdown table per architecture, optionally exporting the JSON report.
func traceCmd(args []string) {
	fs := flag.NewFlagSet("trace", flag.ExitOnError)
	var archs archList
	fs.Var(&archs, "arch", "architecture to trace (repeatable; default: all)")
	requests := fs.Int("requests", 200, "requests to send per architecture")
	seed := fs.Int64("seed", 42, "simulation and trace-ID seed")
	jsonPath := fs.String("json", "", "write the JSON report to this file")
	fs.Parse(args)
	if len(archs) == 0 {
		archs = proxy.Architectures()
	}
	rep, err := bench.TraceExperiment(archs, *requests, *seed)
	if err != nil {
		fmt.Fprintf(os.Stderr, "canalsim: %v\n", err)
		os.Exit(2)
	}
	fmt.Print(rep.String())
	if *jsonPath != "" {
		data, err := rep.JSON()
		if err != nil {
			fmt.Fprintf(os.Stderr, "canalsim: %v\n", err)
			os.Exit(1)
		}
		if err := os.WriteFile(*jsonPath, data, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "canalsim: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote JSON report to %s\n", *jsonPath)
	}
}

// build creates the standard two-AZ gateway used by the scenarios.
func build(seed int64, backends, services int) (*sim.Sim, *cloud.Region, *gateway.Gateway, []*gateway.ServiceState) {
	s := sim.New(seed)
	region := cloud.NewRegion(s, "r1", "az1", "az2")
	g := gateway.New(gateway.Config{Sim: s, Costs: netmodel.Default(), ShardSize: 3, Seed: seed})
	for i := 0; i < backends; i++ {
		az := region.AZ("az1")
		if i%2 == 1 {
			az = region.AZ("az2")
		}
		if _, err := g.AddBackend(az, 2, 2, false); err != nil {
			panic(err)
		}
	}
	if _, err := g.AddBackend(region.AZ("az1"), 2, 2, true); err != nil {
		panic(err)
	}
	var sts []*gateway.ServiceState
	for i := 0; i < services; i++ {
		addr := netip.AddrFrom4([4]byte{192, 168, 0, byte(i + 1)})
		st, err := g.RegisterService("tenant1", fmt.Sprintf("svc-%d", i), 100, addr, 80, false,
			l7.ServiceConfig{DefaultSubset: "v1"})
		if err != nil {
			panic(err)
		}
		sts = append(sts, st)
	}
	return s, region, g, sts
}

func failover() {
	s, region, g, sts := build(8, 6, 4)
	svc := sts[0]
	flow := cloud.SessionKey{SrcIP: "10.0.0.1", SrcPort: 555, DstIP: "10.1.0.1", DstPort: 80, Proto: 6}
	resolve := func(label string) {
		b, err := g.ResolveBackend(svc.ID, "az1", flow)
		if err != nil {
			fmt.Printf("%-28s -> UNAVAILABLE (%v)\n", label, err)
			return
		}
		fmt.Printf("%-28s -> %s in %s\n", label, b.ID, b.AZ)
	}
	fmt.Printf("service %s shard: ", svc.FullName())
	for _, b := range svc.Backends {
		fmt.Printf("%s(%s) ", b.ID, b.AZ)
	}
	fmt.Println()
	resolve("healthy")
	serving, err := g.ResolveBackend(svc.ID, "az1", flow)
	if err != nil {
		panic(err)
	}
	serving.Replicas[0].VM.Fail()
	resolve("one replica down")
	g.FailBackend(serving)
	resolve("whole backend down")
	region.AZ("az1").FailAZ()
	resolve("AZ az1 down (power loss)")
	region.AZ("az1").RecoverAZ()
	resolve("AZ az1 recovered")
	_ = s
}

func attack() {
	s, _, g, sts := build(9, 4, 3)
	victim := sts[0]
	fmt.Println("baseline: 100 RPS, ~200 live sessions")
	victim.Sessions = 200
	// The attack: sessions surge 40x while RPS stays flat (§6.2 Case #1).
	workload.SessionFlood(s, 400, time.Second, 10*time.Second, func() { victim.Sessions++ })
	s.RunUntil(11 * time.Second)
	sig := anomaly.Signals{
		WaterLevel:         0.55,
		RPSGrowth:          1.05,
		SessionGrowth:      float64(victim.Sessions) / 200,
		SessionUtilization: 0.82,
		UserClusterUtil:    -1,
	}
	c := anomaly.Classify(sig)
	fmt.Printf("t=%v sessions=%d -> classification: %s (%s)\n", s.Now(), victim.Sessions, c.Action, c.Reason)
	if c.Action == anomaly.ActionLossyMigrate {
		done := false
		if err := g.MigrateToSandbox(victim.ID, gateway.Lossy, func() { done = true }); err != nil {
			panic(err)
		}
		s.RunUntil(s.Now() + 5*time.Second)
		fmt.Printf("lossy migration completed=%v; service sandboxed=%v, sessions reset to %d\n",
			done, victim.Sandboxed, victim.Sessions)
		for _, other := range sts[1:] {
			b, err := g.ResolveBackend(other.ID, "az1", cloud.SessionKey{SrcIP: "a", SrcPort: 1, DstIP: "b", DstPort: 80, Proto: 6})
			fmt.Printf("co-tenant %s still resolves to %s (err=%v)\n", other.FullName(), b.ID, err)
		}
	}
}

func scatter() {
	s, _, g, sts := build(10, 8, 3)
	// Co-locate all three services on one backend and give them in-phase
	// diurnal traffic histories.
	b0 := g.Backends()[0]
	for _, st := range sts {
		if !b0.HostsService(st.ID) {
			if err := g.ExtendService(st.ID, b0); err != nil {
				panic(err)
			}
		}
	}
	for i := 0; i < 48; i++ {
		at := time.Duration(i) * time.Second
		v := 100 + 80*math.Sin(2*math.Pi*float64(i)/24)
		for _, st := range sts {
			b0.RPSSeries[st.ID].Append(at, v)
		}
		for _, b := range g.Backends()[1:] {
			b.Util.Append(at, 0.05)
		}
	}
	_ = s
	pairs := anomaly.InPhaseServices(b0, 0, 48*time.Second, 0.9)
	fmt.Printf("in-phase pairs on %s: %d\n", b0.ID, len(pairs))
	moves := anomaly.ScatterInPhase(g, b0, 0, 48*time.Second, 0.9, 2)
	for _, m := range moves {
		fmt.Printf("moved %s -> %s (complementary backend)\n", m[0], m[1])
	}
	fmt.Printf("%s now hosts %d services (was %d)\n", b0.ID, len(b0.Services()), len(sts))
}

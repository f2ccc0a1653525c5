package canal

import (
	"fmt"
	"net/netip"
	"time"

	"canalmesh/internal/admission"
	"canalmesh/internal/anomaly"
	"canalmesh/internal/cloud"
	"canalmesh/internal/federation"
	"canalmesh/internal/gateway"
	"canalmesh/internal/l7"
	"canalmesh/internal/netmodel"
	"canalmesh/internal/scaling"
	"canalmesh/internal/sim"
	"canalmesh/internal/workload"
)

// Scenario is the public facade over the discrete-event simulation: build one
// or more regions, provision gateway backends, register tenant services,
// drive load, inject faults, and observe the mesh's availability/elasticity
// machinery — the same substrate cmd/canalbench uses to regenerate the paper.
//
// A zero-config scenario is a single region ("region-1"). Configuring
// ScenarioConfig.Regions builds a federation instead: every region gets its
// own gateway and backends, all pairs are peered, and traffic entering an
// unhealthy region spills over the WAN to a healthy peer.
//
// All time is virtual: a Scenario with hours of traffic runs in milliseconds
// and is fully deterministic for a given seed.
type Scenario struct {
	sim     *sim.Sim
	regions []*Region
	byName  map[string]*Region
	// fed is the peered multi-region mesh; nil for a single-region scenario,
	// which keeps the zero-config path free of federation machinery.
	fed *federation.Mesh
	end time.Duration
}

// ScenarioConfig sizes a scenario.
type ScenarioConfig struct {
	Seed            int64
	AZs             []string // default: az1, az2
	ShardSize       int      // backends per service (default 3)
	Backends        int      // regular backends per region, spread over AZs (default 6)
	ReplicasPerBE   int      // default 2
	CoresPerReplica int      // default 2
	Sandboxes       int      // default 1

	// Regions, when set, builds a multi-region federation: one entry per
	// region, every pair peered. Empty means the classic single region
	// "region-1" with the scenario-level AZ/backend settings and no
	// federation machinery at all.
	Regions []RegionConfig
}

// RegionConfig describes one federation region. Zero fields inherit the
// scenario-level settings.
type RegionConfig struct {
	Name     string   // required, unique
	AZs      []string // default ScenarioConfig.AZs
	Backends int      // default ScenarioConfig.Backends
}

// Region is a handle to one region of a scenario, returned by
// Scenario.Region.
type Region struct {
	sc      *Scenario
	name    string
	cloud   *cloud.Region
	gw      *gateway.Gateway
	planner *scaling.Planner
	monitor *anomaly.Monitor
	// fr is the federation-side registration; nil in single-region mode.
	fr      *federation.Region
	firstAZ string
}

// RegionRoutingStats counts how a region's ingress traffic was routed:
// served by in-region backends, spilled over the WAN to a peer, blackholed
// into a partitioned link, or unserved entirely. All zero in single-region
// scenarios (everything is Local by construction and not counted).
type RegionRoutingStats struct {
	Local     int
	Spilled   int
	SpillLost int
	Unserved  int
}

// NewScenario builds a ready-to-use simulated region + gateway — or, with
// cfg.Regions set, a peered multi-region federation.
func NewScenario(cfg ScenarioConfig) (*Scenario, error) {
	if len(cfg.AZs) == 0 {
		cfg.AZs = []string{"az1", "az2"}
	}
	if cfg.Backends <= 0 {
		cfg.Backends = 6
	}
	if cfg.ReplicasPerBE <= 0 {
		cfg.ReplicasPerBE = 2
	}
	if cfg.CoresPerReplica <= 0 {
		cfg.CoresPerReplica = 2
	}
	if cfg.Sandboxes < 0 {
		cfg.Sandboxes = 0
	} else if cfg.Sandboxes == 0 {
		cfg.Sandboxes = 1
	}
	s := sim.New(cfg.Seed)
	sc := &Scenario{sim: s, byName: make(map[string]*Region)}

	regions := cfg.Regions
	if len(regions) == 0 {
		regions = []RegionConfig{{Name: "region-1"}}
	} else {
		sc.fed = federation.New(federation.Config{Sim: s})
	}
	for _, rc := range regions {
		if rc.Name == "" {
			return nil, fmt.Errorf("canal: RegionConfig needs a Name")
		}
		if _, dup := sc.byName[rc.Name]; dup {
			return nil, fmt.Errorf("canal: duplicate region %q", rc.Name)
		}
		azs := rc.AZs
		if len(azs) == 0 {
			azs = cfg.AZs
		}
		backends := rc.Backends
		if backends <= 0 {
			backends = cfg.Backends
		}
		region := cloud.NewRegion(s, rc.Name, azs...)
		g := gateway.New(gateway.Config{
			Sim: s, Costs: netmodel.Default(), Engine: l7.NewEngine(cfg.Seed),
			ShardSize: cfg.ShardSize, Seed: cfg.Seed,
		})
		for i := 0; i < backends; i++ {
			az := region.AZ(azs[i%len(azs)])
			if _, err := g.AddBackend(az, cfg.ReplicasPerBE, cfg.CoresPerReplica, false); err != nil {
				return nil, err
			}
		}
		for i := 0; i < cfg.Sandboxes; i++ {
			if _, err := g.AddBackend(region.AZ(azs[0]), cfg.ReplicasPerBE, cfg.CoresPerReplica, true); err != nil {
				return nil, err
			}
		}
		r := &Region{sc: sc, name: rc.Name, cloud: region, gw: g, firstAZ: azs[0]}
		r.planner = scaling.NewPlanner(s, g, region, scaling.DefaultOptions())
		r.monitor = anomaly.NewMonitor(s, g, r.planner, anomaly.DefaultThresholds())
		if sc.fed != nil {
			r.fr = sc.fed.AddRegion(region, g)
		}
		sc.regions = append(sc.regions, r)
		sc.byName[rc.Name] = r
	}
	if sc.fed != nil {
		sc.fed.PeerAll()
	}
	return sc, nil
}

// Region returns the named region's handle, or nil. Single-region scenarios
// own exactly one region named "region-1".
func (sc *Scenario) Region(name string) *Region { return sc.byName[name] }

// Regions returns every region handle in configuration order.
func (sc *Scenario) Regions() []*Region { return sc.regions }

// home is the scenario's default region: the first configured one.
func (sc *Scenario) home() *Region { return sc.regions[0] }

// Name returns the region's name.
func (r *Region) Name() string { return r.name }

// Routing returns the region's federation routing counters; zero in
// single-region scenarios.
func (r *Region) Routing() RegionRoutingStats {
	if r.fr == nil {
		return RegionRoutingStats{}
	}
	st := r.fr.Stats()
	return RegionRoutingStats{Local: st.Local, Spilled: st.Spilled, SpillLost: st.SpillLost, Unserved: st.Unserved}
}

// AdmissionOptions tunes a scenario's admission layer. Zero values take the
// admission package defaults.
type AdmissionOptions struct {
	// Weights biases per-tenant fair CPU shares (default weight 1 each).
	Weights map[string]float64
	// Target / Interval tune the CoDel queue-management stage.
	Target   time.Duration
	Interval time.Duration
}

// EnableAdmission turns on the proactive overload-control layer — per-tenant
// weighted fair queues with CoDel on every gateway replica, plus per-service
// adaptive concurrency limits — so one tenant's flash crowd is shed with fast
// 429s instead of queueing behind every other tenant's traffic. Call it
// before driving load; in a multi-region scenario it applies to every
// region's gateway. It composes with the anomaly monitor's sandbox
// migration: admission bounds the blast radius during the tens of seconds the
// monitor needs to confirm an anomaly and migrate the offender.
func (sc *Scenario) EnableAdmission(opt AdmissionOptions) {
	for _, r := range sc.regions {
		r.gw.EnableAdmission(admission.Config{
			Weights:  opt.Weights,
			Target:   opt.Target,
			Interval: opt.Interval,
		})
	}
}

// ScenarioStats is a point-in-time snapshot of a scenario's availability and
// elasticity machinery, taken with Scenario.Stats.
type ScenarioStats struct {
	// AdmissionSheds is the total number of requests the admission layer
	// rejected across all regions (0 when admission is disabled).
	AdmissionSheds float64
	// AdmissionFairness is the Jain fairness index over per-tenant admitted
	// request counts in the home (first) region, in (0, 1]; 1 when admission
	// is disabled or idle.
	AdmissionFairness float64
	// ScalingOps is the number of precise-scaling operations performed
	// across all regions.
	ScalingOps int
	// Interventions holds human-readable records of the anomaly monitors'
	// actions, regions in configuration order. Multi-region entries carry a
	// "region: " prefix.
	Interventions []string
}

// Stats snapshots the scenario's admission, scaling and anomaly-intervention
// counters. Call it after RunFor; the snapshot does not update afterwards.
func (sc *Scenario) Stats() ScenarioStats {
	st := ScenarioStats{AdmissionFairness: 1}
	if m := sc.home().gw.AdmissionMetrics(); m != nil {
		st.AdmissionFairness = m.FairnessIndex()
	}
	for _, r := range sc.regions {
		if m := r.gw.AdmissionMetrics(); m != nil {
			st.AdmissionSheds += m.ShedTotal()
		}
		st.ScalingOps += len(r.planner.Events())
		for _, a := range r.monitor.Actions() {
			line := fmt.Sprintf("%v %s on service %d (%s)", a.At, a.Action, a.Service, a.Reason)
			if sc.fed != nil {
				line = r.name + ": " + line
			}
			st.Interventions = append(st.Interventions, line)
		}
	}
	return st
}

// Service is a handle to one registered tenant service in a scenario. In a
// multi-region scenario the service exists in every region (same tenant,
// name, and VNI), and the handle's per-service accessors (Backends,
// Sandboxed, SetSessions, latency percentiles) read the home region's
// registration.
type Service struct {
	sc *Scenario
	st *gateway.ServiceState
	// fed is the cross-region registration; nil in single-region mode.
	fed *federation.Service
}

// RegisterService installs a tenant service with its L7 configuration — in
// every region of a multi-region scenario. Distinct tenants may reuse
// identical addresses (overlapping VPCs); the VNI keeps them apart.
func (sc *Scenario) RegisterService(tenant, name string, vni uint32, addr string, cfg ServiceConfig) (*Service, error) {
	ip, err := netip.ParseAddr(addr)
	if err != nil {
		return nil, fmt.Errorf("canal: service address: %w", err)
	}
	if sc.fed != nil {
		fsvc, err := sc.fed.AddService(tenant, name, vni, ip, 80, false, cfg)
		if err != nil {
			return nil, err
		}
		return &Service{sc: sc, st: fsvc.State(sc.home().name), fed: fsvc}, nil
	}
	st, err := sc.home().gw.RegisterService(tenant, name, vni, ip, 80, false, cfg)
	if err != nil {
		return nil, err
	}
	return &Service{sc: sc, st: st}, nil
}

// RunFor executes the scenario for the given virtual duration, with
// per-backend sampling and the anomaly monitor active in every region — and,
// in a multi-region scenario, the peering heartbeat loop running.
func (sc *Scenario) RunFor(d time.Duration) {
	sc.end = sc.sim.Now() + d
	stop := func() bool { return sc.sim.Now() > sc.end }
	for _, r := range sc.regions {
		r.gw.StartSampling(stop)
		r.monitor.Start(stop)
	}
	if sc.fed != nil {
		sc.fed.Start(stop)
	}
	sc.sim.RunUntil(sc.end)
	sc.sim.Run() // drain stragglers (completions, migrations, WAN returns)
}

// Now returns the current virtual time.
func (sc *Scenario) Now() time.Duration { return sc.sim.Now() }

// TrafficStats summarizes one service's drive results.
type TrafficStats struct {
	ByStatus map[int]*int
	// P50, P99 are filled from the service's recorded latencies after
	// RunFor completes.
	service *gateway.ServiceState
}

// TrafficPattern describes an offered-load shape for Service.Drive: an RPS
// curve, a source region and AZ, and a duration. Build one with Constant,
// Spike or RateFunc, then refine it with the chained From, FromRegion and
// For setters:
//
//	svc.Drive(canal.Constant(100).For(20 * time.Second))
//	svc.Drive(canal.Spike(50, 4000, 10*time.Second, 30*time.Second).From("az2").For(time.Minute))
//	svc.Drive(canal.Constant(100).FromRegion("eu-west").For(time.Minute))
//
// The zero source region means the scenario's first configured region; the
// zero source AZ means that region's first configured AZ. The setters are
// value receivers, so patterns are freely reusable and shareable.
type TrafficPattern struct {
	fromRegion string
	fromAZ     string
	dur        time.Duration
	rate       func(time.Duration) float64
}

// Constant is a flat rps request/s pattern.
func Constant(rps float64) TrafficPattern {
	return TrafficPattern{rate: workload.Constant(rps)}
}

// Spike offers base RPS with a surge to peak during [start, start+spike),
// measured from the moment Drive is called.
func Spike(base, peak float64, start, spike time.Duration) TrafficPattern {
	return TrafficPattern{rate: workload.Spike(base, peak, start, spike)}
}

// RateFunc wraps an arbitrary RPS curve (virtual time since Drive → RPS).
func RateFunc(rate func(time.Duration) float64) TrafficPattern {
	return TrafficPattern{rate: rate}
}

// From sets the source AZ the traffic enters through.
func (p TrafficPattern) From(az string) TrafficPattern {
	p.fromAZ = az
	return p
}

// FromRegion sets the region the traffic enters through. In a multi-region
// scenario the entering region serves locally while healthy and spills over
// the WAN when its capacity collapses.
func (p TrafficPattern) FromRegion(region string) TrafficPattern {
	p.fromRegion = region
	return p
}

// For sets how long the pattern drives load.
func (p TrafficPattern) For(dur time.Duration) TrafficPattern {
	p.dur = dur
	return p
}

// Drive offers the pattern's load to the service and returns live counters
// by HTTP status (they fill in as the scenario runs). The pattern must carry
// a rate (build it with Constant, Spike or RateFunc) and a positive duration
// (set one with For); Drive panics otherwise, since a silent no-op drive
// would invalidate the experiment — and likewise for an unknown source
// region.
func (svc *Service) Drive(p TrafficPattern) *TrafficStats {
	if p.rate == nil {
		panic("canal: Drive needs a rate; build the TrafficPattern with Constant, Spike or RateFunc")
	}
	if p.dur <= 0 {
		panic("canal: Drive needs a positive duration; set one with TrafficPattern.For")
	}
	sc := svc.sc
	from := sc.home()
	if p.fromRegion != "" {
		if from = sc.byName[p.fromRegion]; from == nil {
			panic(fmt.Sprintf("canal: Drive from unknown region %q", p.fromRegion))
		}
	}
	fromAZ := p.fromAZ
	if fromAZ == "" {
		fromAZ = from.firstAZ
	}
	st := svc.st
	if svc.fed != nil {
		st = svc.fed.State(from.name)
	}
	stats := &TrafficStats{ByStatus: map[int]*int{}, service: st}
	record := func(_ time.Duration, status int) {
		p := stats.ByStatus[status]
		if p == nil {
			p = new(int)
			stats.ByStatus[status] = p
		}
		*p++
	}
	i := int(st.ID) << 18
	end := sc.sim.Now() + p.dur
	workload.OpenLoop(sc.sim, p.rate, 10*time.Millisecond, end, func() {
		i++
		flow := cloud.SessionKey{
			SrcIP: "10.0.0.2", SrcPort: uint16(i%60000 + 1),
			DstIP: st.Addr.String(), DstPort: 80, Proto: 6,
		}
		req := &Request{Method: "GET", Path: "/", BodyBytes: 1024}
		if svc.fed != nil {
			sc.fed.Dispatch(from.name, svc.fed, fromAZ, flow, req, 1, nil, record)
			return
		}
		from.gw.Dispatch(st.ID, fromAZ, flow, req, 1, record)
	})
	return stats
}

// Count returns the tally for a status code.
func (t *TrafficStats) Count(status int) int {
	if p := t.ByStatus[status]; p != nil {
		return *p
	}
	return 0
}

// LatencyP returns the p-th latency percentile the entering region's
// registration observed so far (spilled requests are recorded by the peer
// region that served them).
func (t *TrafficStats) LatencyP(p float64) time.Duration {
	return t.service.Latency.PercentileDuration(p)
}

// Sandboxed reports whether the service has been isolated (home region).
func (svc *Service) Sandboxed() bool { return svc.st.Sandboxed }

// Backends returns the IDs of the service's backends (home region).
func (svc *Service) Backends() []string {
	out := make([]string, 0, len(svc.st.Backends))
	for _, b := range svc.st.Backends {
		out = append(out, b.ID)
	}
	return out
}

// SetSessions sets the service's live-session gauge (the signal the attack
// detector watches).
func (svc *Service) SetSessions(n int) { svc.st.Sessions = n }

// Throttle rate-limits the service at the gateway — every region's gateway
// in a multi-region scenario; rps <= 0 removes it.
func (svc *Service) Throttle(rps, burst float64) error {
	if svc.fed == nil {
		return svc.sc.home().gw.Throttle(svc.st.ID, rps, burst)
	}
	for _, r := range svc.sc.regions {
		if err := r.gw.Throttle(svc.fed.State(r.name).ID, rps, burst); err != nil {
			return err
		}
	}
	return nil
}

// faultKind discriminates the Fault constructors.
type faultKind uint8

const (
	faultNone faultKind = iota
	faultAZDown
	faultAZRecover
	faultRegionEvac
	faultRegionRestore
	faultPartition
	faultHeal
)

// Fault is one injectable failure, built with AZDown, AZRecover,
// RegionEvacuation, RegionRestore, RegionPartition or RegionHeal and
// scheduled with Scenario.Inject. The constructors are pure values: a Fault
// is freely reusable across scenarios and times.
type Fault struct {
	kind   faultKind
	az     string
	region string
	peer   string
}

// AZDown fails every VM in a zone. The zone is looked up in the scenario's
// first region unless the fault is scoped with In.
func AZDown(az string) Fault { return Fault{kind: faultAZDown, az: az} }

// AZRecover restores a zone downed by AZDown.
func AZRecover(az string) Fault { return Fault{kind: faultAZRecover, az: az} }

// In scopes an AZ fault to the named region.
func (f Fault) In(region string) Fault {
	f.region = region
	return f
}

// RegionEvacuation fails every VM in every zone of the region — the
// whole-region outage that drives WAN spillover in a federation.
func RegionEvacuation(region string) Fault { return Fault{kind: faultRegionEvac, region: region} }

// RegionRestore recovers a region evacuated by RegionEvacuation.
func RegionRestore(region string) Fault { return Fault{kind: faultRegionRestore, region: region} }

// RegionPartition severs the physical WAN link between two regions: traffic
// spilled across it is blackholed until the peering's missed-heartbeat
// timeout detects the cut. Requires a multi-region scenario.
func RegionPartition(a, b string) Fault { return Fault{kind: faultPartition, region: a, peer: b} }

// RegionHeal restores a link severed by RegionPartition; the peering
// reconnects and catches up at its next heartbeat.
func RegionHeal(a, b string) Fault { return Fault{kind: faultHeal, region: a, peer: b} }

// Inject schedules the fault at the given virtual time. The target is
// validated immediately — an unknown AZ or region, or a partition in a
// single-region scenario, errors now rather than silently no-opping
// mid-run.
func (sc *Scenario) Inject(f Fault, at time.Duration) error {
	switch f.kind {
	case faultAZDown, faultAZRecover:
		r, err := sc.faultRegion(f.region)
		if err != nil {
			return err
		}
		zone := r.cloud.AZ(f.az)
		if zone == nil {
			return fmt.Errorf("canal: unknown AZ %q in region %s", f.az, r.name)
		}
		if f.kind == faultAZDown {
			sc.sim.At(at, func() { zone.FailAZ() })
		} else {
			sc.sim.At(at, func() { zone.RecoverAZ() })
		}
	case faultRegionEvac, faultRegionRestore:
		r, err := sc.faultRegion(f.region)
		if err != nil {
			return err
		}
		if f.kind == faultRegionEvac {
			sc.sim.At(at, func() { r.cloud.FailRegion() })
		} else {
			sc.sim.At(at, func() { r.cloud.RecoverRegion() })
		}
	case faultPartition, faultHeal:
		if sc.fed == nil {
			return fmt.Errorf("canal: region partition needs a multi-region scenario")
		}
		a, b := f.region, f.peer
		if sc.byName[a] == nil || sc.byName[b] == nil {
			return fmt.Errorf("canal: unknown region in partition %q <-> %q", a, b)
		}
		if f.kind == faultPartition {
			sc.sim.At(at, func() { _ = sc.fed.Partition(a, b) })
		} else {
			sc.sim.At(at, func() { _ = sc.fed.Heal(a, b) })
		}
	default:
		return fmt.Errorf("canal: empty fault; build one with AZDown, RegionEvacuation, RegionPartition, ...")
	}
	return nil
}

// faultRegion resolves a fault's target region: the named one, or the
// scenario's first region when unscoped.
func (sc *Scenario) faultRegion(name string) (*Region, error) {
	if name == "" {
		return sc.home(), nil
	}
	if r := sc.byName[name]; r != nil {
		return r, nil
	}
	return nil, fmt.Errorf("canal: unknown region %q", name)
}

// Package gateway implements Canal's centralized multi-tenant mesh gateway
// (§3.3, §4.2): elastically-created backends made of replica VMs behind a
// virtual IP, per-service configuration installed on a shuffle-sharded
// subset of backends spanning availability zones, tenant dispatch on the
// globally unique service IDs the vSwitch attaches, hierarchical failure
// recovery (replica -> backend -> AZ), AZ-affine DNS resolution, sandbox
// isolation, and per-service/per-backend telemetry feeding the anomaly
// detection and precise-scaling layers.
package gateway

import (
	"fmt"
	"net/netip"
	"sort"
	"time"

	"canalmesh/internal/admission"
	"canalmesh/internal/cloud"
	"canalmesh/internal/l4"
	"canalmesh/internal/l7"
	"canalmesh/internal/netmodel"
	"canalmesh/internal/overlay"
	"canalmesh/internal/sharding"
	"canalmesh/internal/sim"
	"canalmesh/internal/telemetry"
)

// Replica is one VM of a backend.
type Replica struct {
	VM *cloud.VM
}

// Backend is a group of replica VMs sharing the same set of service
// configurations (Fig 8). Sandbox backends receive migrated anomalous
// services.
type Backend struct {
	ID       string
	AZ       string
	Sandbox  bool
	Replicas []*Replica

	services map[uint64]bool
	// rps counts requests per service in the current sampling window.
	window map[uint64]int
	// RPSSeries holds 1-second samples per service (for RCA, Fig 16).
	RPSSeries map[uint64]*telemetry.Series
	// Util holds 1-second CPU water-level samples.
	Util *telemetry.Series
}

// HostsService reports whether the backend carries a service's config.
func (b *Backend) HostsService(id uint64) bool { return b.services[id] }

// Services returns the installed service IDs, sorted.
func (b *Backend) Services() []uint64 {
	out := make([]uint64, 0, len(b.services))
	for id := range b.services {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Alive reports whether any replica is up.
func (b *Backend) Alive() bool {
	for _, r := range b.Replicas {
		if !r.VM.Failed() {
			return true
		}
	}
	return false
}

// WaterLevel returns the backend's CPU utilization in the sampling bucket
// containing t: the mean across alive replicas.
func (b *Backend) WaterLevel(t time.Duration) float64 {
	var sum float64
	alive := 0
	for _, r := range b.Replicas {
		if !r.VM.Failed() {
			sum += r.VM.Proc.Utilization(t)
			alive++
		}
	}
	if alive == 0 {
		return 0
	}
	return sum / float64(alive)
}

// ServiceState tracks one registered tenant service.
type ServiceState struct {
	ID        uint64
	Tenant    string
	Name      string
	VNI       uint32
	Addr      netip.Addr
	Port      uint16
	HTTPS     bool // HTTPS sessions weigh ~3x in migration decisions (§6.3)
	Backends  []*Backend
	Sandboxed bool
	// Throttle, when non-nil, rate-limits the service at dispatch.
	Throttle *l7.TokenBucket

	Latency *telemetry.Sample
	Errors  *telemetry.Counter
	// Sessions counts live transport sessions attributed to the service.
	Sessions int

	// engineName is the service's name in the shared L7 engine.
	engineName string
}

// Key returns the vSwitch key of the service.
func (s *ServiceState) Key() overlay.ServiceKey {
	return overlay.ServiceKey{VNI: s.VNI, DstIP: s.Addr, DstPort: s.Port}
}

// FullName returns tenant/name.
func (s *ServiceState) FullName() string { return s.Tenant + "/" + s.Name }

// Config holds gateway-wide construction parameters.
type Config struct {
	Sim   *sim.Sim
	Costs netmodel.Costs
	// Engine routes L7 for all tenants.
	Engine *l7.Engine
	// ShardSize is the number of backends per service (shuffle sharding k).
	ShardSize int
	// Seed drives shard assignment.
	Seed int64
	// Log, when non-nil, receives an L7 access entry per dispatch — the
	// rich gateway-side observability of §4.1.1.
	Log *telemetry.AccessLog
}

// Gateway is the centralized multi-tenant mesh gateway.
type Gateway struct {
	cfg       Config
	vswitch   *overlay.VSwitch
	backends  []*Backend
	sandboxes []*Backend
	services  map[uint64]*ServiceState
	assigner  *sharding.Assigner
	seq       int

	sampling bool
	adm      *admissionState
}

// admissionState holds the gateway's proactive overload-control layer when
// enabled: per-service AIMD limiters, per-replica WDRR+CoDel queues (wired
// into each replica Processor as its queue discipline), shared shed/sojourn
// metrics, and a 1-second shed-rate series fed by StartSampling.
type admissionState struct {
	cfg      admission.Config
	metrics  *admission.Metrics
	limiters map[uint64]*admission.Limiter
	// ShedSeries samples gateway-wide sheds per second.
	shedSeries *telemetry.Series
	shedWindow int
}

// New creates an empty gateway.
func New(cfg Config) *Gateway {
	if cfg.ShardSize <= 0 {
		cfg.ShardSize = 3
	}
	return &Gateway{
		cfg:      cfg,
		vswitch:  overlay.NewVSwitch(),
		services: make(map[uint64]*ServiceState),
	}
}

// VSwitch exposes the tenant-dispatch vSwitch.
func (g *Gateway) VSwitch() *overlay.VSwitch { return g.vswitch }

// Engine exposes the shared L7 engine.
func (g *Gateway) Engine() *l7.Engine { return g.cfg.Engine }

// AddBackend creates a backend of `replicas` VMs with `cores` each in the
// zone. Sandbox backends are kept out of normal shard assignment.
func (g *Gateway) AddBackend(az *cloud.AZ, replicas, cores int, sandbox bool) (*Backend, error) {
	g.seq++
	b := &Backend{
		ID:        fmt.Sprintf("backend-%d", g.seq),
		AZ:        az.Name,
		Sandbox:   sandbox,
		services:  make(map[uint64]bool),
		window:    make(map[uint64]int),
		RPSSeries: make(map[uint64]*telemetry.Series),
		Util:      telemetry.NewSeries("util"),
	}
	for i := 0; i < replicas; i++ {
		vm, err := az.NewVM(cloud.VMSpec{Cores: cores})
		if err != nil {
			return nil, err
		}
		b.Replicas = append(b.Replicas, &Replica{VM: vm})
	}
	if sandbox {
		g.sandboxes = append(g.sandboxes, b)
	} else {
		g.backends = append(g.backends, b)
		// The shard space changed; existing assignments keep their
		// backends, new services see the larger pool.
		g.assigner = nil
	}
	if g.adm != nil {
		g.installAdmission(b)
	}
	return b, nil
}

// EnableAdmission turns on the proactive overload-control layer: every
// replica's processor gets a WDRR+CoDel queue discipline (one queue per
// tenant per replica) and every service gets an AIMD concurrency limiter.
// Backends added later are covered automatically. Call before offering load;
// with admission off, Dispatch behaves exactly as without this layer.
func (g *Gateway) EnableAdmission(cfg admission.Config) {
	g.adm = &admissionState{
		cfg:        cfg.WithDefaults(),
		metrics:    admission.NewMetrics(),
		limiters:   make(map[uint64]*admission.Limiter),
		shedSeries: telemetry.NewSeries("admission-shed"),
	}
	for _, b := range append(append([]*Backend{}, g.backends...), g.sandboxes...) {
		g.installAdmission(b)
	}
}

// AdmissionEnabled reports whether the admission layer is active.
func (g *Gateway) AdmissionEnabled() bool { return g.adm != nil }

// AdmissionMetrics returns the admission layer's metrics, or nil when
// disabled.
func (g *Gateway) AdmissionMetrics() *admission.Metrics {
	if g.adm == nil {
		return nil
	}
	return g.adm.metrics
}

// ShedSeries returns the 1-second gateway-wide shed-rate series (sampled by
// StartSampling), or nil when admission is disabled.
func (g *Gateway) ShedSeries() *telemetry.Series {
	if g.adm == nil {
		return nil
	}
	return g.adm.shedSeries
}

// installAdmission puts a fresh per-tenant fair queue on each replica of b.
func (g *Gateway) installAdmission(b *Backend) {
	for _, r := range b.Replicas {
		r.VM.Proc.SetDiscipline(admission.NewQueue(g.adm.cfg, g.adm.metrics))
	}
}

// limiterFor returns (creating if needed) the service's adaptive limiter.
func (g *Gateway) limiterFor(s *ServiceState) *admission.Limiter {
	lim, ok := g.adm.limiters[s.ID]
	if !ok {
		lim = admission.NewLimiter(g.adm.cfg.Limiter)
		g.adm.limiters[s.ID] = lim
	}
	return lim
}

// ServiceLimiter exposes a service's adaptive limiter (nil when admission is
// disabled or the service unknown) for tests and operators.
func (g *Gateway) ServiceLimiter(id uint64) *admission.Limiter {
	if g.adm == nil {
		return nil
	}
	s, ok := g.services[id]
	if !ok {
		return nil
	}
	return g.limiterFor(s)
}

// Backends returns the non-sandbox backends.
func (g *Gateway) Backends() []*Backend { return g.backends }

// Sandboxes returns the sandbox backends.
func (g *Gateway) Sandboxes() []*Backend { return g.sandboxes }

// Service returns a registered service by ID.
func (g *Gateway) Service(id uint64) *ServiceState { return g.services[id] }

// ServiceByName finds a service by tenant and name.
func (g *Gateway) ServiceByName(tenant, name string) *ServiceState {
	for _, s := range g.services {
		if s.Tenant == tenant && s.Name == name {
			return s
		}
	}
	return nil
}

// Services returns all services sorted by ID.
func (g *Gateway) Services() []*ServiceState {
	out := make([]*ServiceState, 0, len(g.services))
	for _, s := range g.services {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// RegisterService installs a tenant service: maps its (VNI, addr, port) to a
// globally unique service ID at the vSwitch, installs its L7 configuration,
// and assigns its shuffle-sharded backend set, preferring a spread across
// AZs (Fig 8: same-AZ redundancy plus cross-AZ replicas).
func (g *Gateway) RegisterService(tenant, name string, vni uint32, addr netip.Addr, port uint16, https bool, l7cfg l7.ServiceConfig) (*ServiceState, error) {
	if len(g.backends) == 0 {
		return nil, fmt.Errorf("gateway: no backends")
	}
	id := g.vswitch.Register(overlay.ServiceKey{VNI: vni, DstIP: addr, DstPort: port})
	if s, ok := g.services[id]; ok {
		return s, fmt.Errorf("gateway: service %s already registered as %d", s.FullName(), id)
	}
	l7cfg.Service = fmt.Sprintf("svc-%d", id)
	if err := g.cfg.Engine.Configure(l7cfg); err != nil {
		return nil, err
	}
	st := &ServiceState{
		ID: id, Tenant: tenant, Name: name, VNI: vni, Addr: addr, Port: port, HTTPS: https,
		Latency: &telemetry.Sample{}, Errors: &telemetry.Counter{},
		engineName: l7cfg.Service,
	}
	k := g.cfg.ShardSize
	if k > len(g.backends) {
		k = len(g.backends)
	}
	if g.assigner == nil {
		g.assigner = sharding.NewAssigner(len(g.backends), k, g.cfg.Seed)
	}
	for _, idx := range g.assigner.Assign(fmt.Sprintf("%s/%s", tenant, name)) {
		g.installOn(st, g.backends[idx])
	}
	g.services[id] = st
	return st, nil
}

// installOn places a service's configuration on a backend.
func (g *Gateway) installOn(s *ServiceState, b *Backend) {
	if b.services[s.ID] {
		return
	}
	b.services[s.ID] = true
	b.RPSSeries[s.ID] = telemetry.NewSeries(fmt.Sprintf("%s@%s", s.FullName(), b.ID))
	s.Backends = append(s.Backends, b)
}

// removeFrom removes a service's configuration from a backend.
func (g *Gateway) removeFrom(s *ServiceState, b *Backend) {
	delete(b.services, s.ID)
	for i, sb := range s.Backends {
		if sb == b {
			s.Backends = append(s.Backends[:i], s.Backends[i+1:]...)
			break
		}
	}
}

// ExtendService adds a backend to a service's set (the Reuse scaling
// strategy, §4.3).
func (g *Gateway) ExtendService(id uint64, b *Backend) error {
	s, ok := g.services[id]
	if !ok {
		return fmt.Errorf("gateway: unknown service %d", id)
	}
	g.installOn(s, b)
	return nil
}

// ResolveBackend performs the customized DNS resolution of §4.2: requests
// resolve to an alive backend hosting the service in the client's AZ when
// possible; only if the whole local AZ is down do they cross AZs. Sandboxed
// services resolve only to sandboxes.
func (g *Gateway) ResolveBackend(id uint64, clientAZ string, flow cloud.SessionKey) (*Backend, error) {
	s, ok := g.services[id]
	if !ok {
		return nil, fmt.Errorf("gateway: unknown service %d", id)
	}
	return g.resolveBackend(s, clientAZ, l4.Hash5Tuple(flow))
}

// resolveBackend picks the backend for a flow hashing to h: candidate
// number h mod n of the n in the pool, counted in place rather than
// gathered, so the pick is the one an ECMP hash over the pool's list makes.
func (g *Gateway) resolveBackend(s *ServiceState, clientAZ string, h uint64) (*Backend, error) {
	if s.Sandboxed {
		inPool := func(b *Backend) bool { return b.Alive() && b.HostsService(s.ID) }
		if b := nthMatch(g.sandboxes, h, inPool); b != nil {
			return b, nil
		}
	} else {
		local := func(b *Backend) bool { return b.Alive() && b.AZ == clientAZ }
		if b := nthMatch(s.Backends, h, local); b != nil {
			return b, nil
		}
		remote := func(b *Backend) bool { return b.Alive() && b.AZ != clientAZ }
		if b := nthMatch(s.Backends, h, remote); b != nil {
			return b, nil
		}
	}
	return nil, fmt.Errorf("gateway: service %s has no alive backend", s.FullName())
}

// nthMatch returns element h mod n of the n elements of list that match, or
// nil when none does.
func nthMatch[T any](list []*T, h uint64, match func(*T) bool) *T {
	n := 0
	for _, x := range list {
		if match(x) {
			n++
		}
	}
	if n == 0 {
		return nil
	}
	i := int(h % uint64(n))
	for _, x := range list {
		if match(x) {
			if i == 0 {
				return x
			}
			i--
		}
	}
	return nil
}

// pickReplica chooses an alive replica of a backend for a flow hashing to h.
func pickReplica(b *Backend, h uint64) (*Replica, error) {
	r := nthMatch(b.Replicas, h, func(r *Replica) bool { return !r.VM.Failed() })
	if r == nil {
		return nil, fmt.Errorf("gateway: backend %s has no alive replica", b.ID)
	}
	return r, nil
}

// dispatch is one request's passage through the gateway: the state its
// completion, shed and failure paths share. It embeds the sim.Work the
// admission path submits, so a request allocates this one value and the
// bound callbacks its processor event needs.
type dispatch struct {
	sim.Work
	g        *Gateway
	s        *ServiceState
	req      *l7.Request
	r        *Replica // the replica serving the request, once picked
	lim      *admission.Limiter
	released bool
	start    time.Duration
	done     func(lat time.Duration, status int)
}

// Dispatch processes one request for a service arriving from clientAZ,
// charging L7 CPU on the chosen replica and invoking done with the gateway
// processing latency and status. The caller (on-node proxy model or bench)
// wraps network latency around it.
func (g *Gateway) Dispatch(id uint64, clientAZ string, flow cloud.SessionKey, req *l7.Request, costMult float64, done func(lat time.Duration, status int)) {
	s, ok := g.services[id]
	if !ok {
		done(0, l7.StatusUnavailable)
		return
	}
	d := &dispatch{g: g, s: s, req: req, start: g.cfg.Sim.Now(), done: done}
	if s.Throttle != nil && !s.Throttle.Allow(d.start) {
		d.fail(l7.StatusTooManyRequests)
		return
	}
	// Admission stage 1: the per-service AIMD limiter sheds excess
	// concurrency before any backend resources are touched.
	if g.adm != nil {
		d.lim = g.limiterFor(s)
		if !d.lim.Acquire(d.start) {
			g.noteShed(s.Tenant, admission.ReasonLimiter)
			d.fail(l7.StatusTooManyRequests)
			return
		}
	}
	// One hash of the flow picks both the backend and its replica.
	h := l4.Hash5Tuple(flow)
	b, err := g.resolveBackend(s, clientAZ, h)
	if err != nil {
		d.abort(l7.StatusUnavailable)
		return
	}
	if d.r, err = pickReplica(b, h); err != nil {
		d.abort(l7.StatusUnavailable)
		return
	}
	req.Service = s.engineName
	if _, err := g.cfg.Engine.Route(d.start, req); err != nil {
		d.abort(l7.StatusOf(err))
		return
	}
	if req.NewConnection {
		// New transport sessions occupy the replica's SmartNIC-backed
		// session table (§3.2 Issue #4); a full table rejects the
		// connection — the pressure session aggregation relieves.
		if err := d.r.VM.Sessions.Add(flow); err != nil {
			d.abort(l7.StatusUnavailable)
			return
		}
		s.Sessions++
	}
	b.window[id]++
	cost := sim.Scale(g.cfg.Costs.GatewayL7Cost(req.BodyBytes), costMult)
	if req.TLS {
		cost += 2 * g.cfg.Costs.SymCryptoCost(req.BodyBytes)
	}
	if g.adm == nil {
		d.r.VM.Proc.Exec(cost, d.complete)
		return
	}
	// Admission stage 2: the replica's WDRR+CoDel discipline decides when
	// (and whether) the work runs; shed requests fail fast with 429.
	d.Tenant, d.Cost, d.Do, d.Drop = s.Tenant, cost, d.admitted, d.shed
	d.r.VM.Proc.Submit(&d.Work)
}

// logEntry writes the request's access-log entry, when the gateway logs.
func (d *dispatch) logEntry(status int, where string) {
	log := d.g.cfg.Log
	if log == nil {
		return
	}
	log.Log(telemetry.AccessEntry{
		At: d.start, Layer: telemetry.AccessL7, Where: where,
		Tenant: d.s.Tenant, Service: d.s.Name, SrcPod: d.req.SourcePod,
		Method: d.req.Method, Path: d.req.Path, Status: status,
		Latency: d.g.cfg.Sim.Now() - d.start, BodySize: d.req.BodyBytes,
	})
}

// fail answers the request at the gateway with an error status.
func (d *dispatch) fail(status int) {
	d.s.Errors.Inc()
	d.logEntry(status, "gateway")
	d.done(d.g.cfg.Sim.Now()-d.start, status)
}

// abort fails a request that already holds a limiter slot.
func (d *dispatch) abort(status int) {
	d.release(0, false)
	d.fail(status)
}

// release returns the request's limiter slot, once.
func (d *dispatch) release(lat time.Duration, ok bool) {
	if d.lim == nil || d.released {
		return
	}
	d.released = true
	d.lim.Release(d.g.cfg.Sim.Now(), lat, ok)
}

// complete finishes a request its replica served.
func (d *dispatch) complete() {
	lat := d.g.cfg.Sim.Now() - d.start
	d.release(lat, true)
	d.s.Latency.ObserveDuration(lat)
	d.logEntry(l7.StatusOK, d.r.VM.ID)
	d.done(lat, l7.StatusOK)
}

// admitted is the admission path's completion: the discipline ran the work.
func (d *dispatch) admitted() {
	d.g.adm.metrics.Tenant(d.s.Tenant).Admitted.Inc()
	d.complete()
}

// shed is the admission path's drop: the discipline shed the work.
func (d *dispatch) shed(time.Duration) {
	d.release(0, false)
	// The discipline already recorded the shed reason; count it toward the
	// gateway-wide shed rate here.
	d.g.adm.shedWindow++
	d.fail(l7.StatusTooManyRequests)
}

// noteShed records a limiter-stage shed in the admission metrics and the
// per-second shed window.
func (g *Gateway) noteShed(tenant string, reason admission.Reason) {
	g.adm.metrics.RecordShed(tenant, reason)
	g.adm.shedWindow++
}

// EndSession releases a finished transport session from whichever replica
// tracks it and decrements the service gauge.
func (g *Gateway) EndSession(id uint64, flow cloud.SessionKey) {
	s, ok := g.services[id]
	if !ok {
		return
	}
	for _, b := range s.Backends {
		for _, r := range b.Replicas {
			if r.VM.Sessions.Has(flow) {
				r.VM.Sessions.Remove(flow)
				if s.Sessions > 0 {
					s.Sessions--
				}
				return
			}
		}
	}
}

// SessionPressure returns the highest session-table utilization across the
// service's replicas — the signal behind the 80%-of-sessions alert in §6.2
// Case #1.
func (g *Gateway) SessionPressure(id uint64) float64 {
	s, ok := g.services[id]
	if !ok {
		return 0
	}
	max := 0.0
	for _, b := range s.Backends {
		for _, r := range b.Replicas {
			if u := r.VM.Sessions.Utilization(); u > max {
				max = u
			}
		}
	}
	return max
}

// StartSampling begins the 1-second per-backend sampling loop recording
// per-service RPS and backend water levels — the monitoring substrate of
// §4.2's anomaly detection. stop is consulted each tick.
func (g *Gateway) StartSampling(stop func() bool) {
	if g.sampling {
		return
	}
	g.sampling = true
	g.cfg.Sim.Every(time.Second, func() bool {
		if stop != nil && stop() {
			g.sampling = false
			return false
		}
		now := g.cfg.Sim.Now()
		for _, b := range append(append([]*Backend{}, g.backends...), g.sandboxes...) {
			b.Util.Append(now, b.WaterLevel(now-time.Second))
			for id, series := range b.RPSSeries {
				series.Append(now, float64(b.window[id]))
			}
			b.window = make(map[uint64]int)
		}
		if g.adm != nil {
			g.adm.shedSeries.Append(now, float64(g.adm.shedWindow))
			g.adm.shedWindow = 0
		}
		return true
	})
}

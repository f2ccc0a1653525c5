// Package proxy assembles the three service-mesh data planes this
// repository compares — per-pod sidecars (Istio-like), per-node L4 proxies
// with per-service L7 waypoints (Ambient-like), and Canal's on-node proxy
// plus centralized mesh gateway — out of the shared substrates: the L7
// engine, the redirection cost model, the crypto cost model, and the
// simulator's processors. A fourth assembly, Direct, is the no-mesh
// baseline of Fig 10.
//
// All assemblies implement Mesh: one Send simulates a full request/response
// exchange hop by hop, charging network latency between placements and CPU
// on each component's processor, so saturation produces the queueing-driven
// latency knees the paper measures (Figs 2, 10, 11, 13).
package proxy

import (
	"time"

	"canalmesh/internal/l7"
	"canalmesh/internal/netmodel"
	"canalmesh/internal/sim"
	"canalmesh/internal/trace"
)

// Mesh simulates end-to-end delivery of requests under one architecture.
type Mesh interface {
	// Name identifies the architecture.
	Name() string
	// Send simulates one request; done fires at the virtual completion
	// time with the end-to-end latency and the HTTP status.
	Send(req *l7.Request, done func(lat time.Duration, status int))
	// UserProcs returns the processors that consume user-purchased
	// resources (sidecars, node proxies, waypoints — NOT the cloud-side
	// gateway).
	UserProcs() []*sim.Processor
	// CloudProcs returns processors hosted by the cloud provider (Canal's
	// gateway); empty for the other architectures.
	CloudProcs() []*sim.Processor
}

// Endpoint is one placed component with its CPU.
type Endpoint struct {
	Name  string
	Place netmodel.Place
	Proc  *sim.Processor
}

// NewEndpoint creates an endpoint with a dedicated processor.
func NewEndpoint(s *sim.Sim, name string, place netmodel.Place, cores int) *Endpoint {
	return &Endpoint{Name: name, Place: place, Proc: sim.NewProcessor(s, name, cores)}
}

// AsymPolicy returns, for one new-connection handshake, the CPU charged on
// the local proxy and the extra wall-clock latency that does not consume
// local CPU (remote key-server round trips, batch waits).
type AsymPolicy func() (localCPU, extraLatency time.Duration)

// NoTLS is the policy for unencrypted traffic.
func NoTLS() (time.Duration, time.Duration) { return 0, 0 }

// LocalSoftwareAsym performs asymmetric crypto in software on the proxy.
func LocalSoftwareAsym(c netmodel.Costs) AsymPolicy {
	return func() (time.Duration, time.Duration) { return c.AsymSoft, 0 }
}

// LocalAcceleratedAsym uses on-host QAT/AVX-512; concurrency tells the
// batching model how full batches run (Fig 25: below batch size, the
// timeout stall dominates).
func LocalAcceleratedAsym(c netmodel.Costs, concurrency int) AsymPolicy {
	return func() (time.Duration, time.Duration) {
		wait := time.Duration(0)
		if concurrency < 8 {
			wait = time.Millisecond // batch-fill timeout stall
		}
		return c.AsymAccel, wait
	}
}

// RemoteKeyServerAsym offloads to a key server one intra-AZ round trip away;
// the shared server's batches are always full (§4.1.3), so no stall.
func RemoteKeyServerAsym(c netmodel.Costs) AsymPolicy {
	return func() (time.Duration, time.Duration) {
		// Tiny local CPU to build/seal the RPC; the asym work happens on
		// the key server's accelerators.
		return 10 * time.Microsecond, c.IntraAZRTT + c.AsymAccel
	}
}

// step is one hop of a request path.
type step struct {
	at  *Endpoint
	cpu time.Duration
	// lat is extra wall-clock latency charged before the CPU work (network
	// travel from the previous hop plus any handshake waits).
	lat time.Duration
	// crypto is the share of cpu spent on symmetric/asymmetric crypto,
	// attributed separately on the hop's trace span.
	crypto time.Duration
}

// maxSteps is the hop count a chain holds without allocating: Canal's and
// Ambient's full exchanges are the longest, at nine hops. A longer path
// would still run, with its steps on the heap.
const maxSteps = 9

// chain is one request's walk over its hops: the steps, the trace, and the
// position of the hop in progress. It and its wake callback, bound once, are
// all a simulated request allocates: the steps live in its own array and
// every event it schedules is wake.
//
// Each hop span splits its contribution into Net (wire travel plus handshake
// waits charged before arrival), Queue (wait for a core at the hop's
// processor, the mechanism behind every latency knee), and CPU (service
// time, with the crypto share attributed separately). The three segments are
// exhaustive, so a trace's per-hop sums reconcile exactly with the measured
// end-to-end latency.
type chain struct {
	sim    *sim.Sim
	tracer *trace.Tracer
	tr     *trace.Trace // nil when tracing is off
	done   func(lat time.Duration, status int)
	status int

	buf   [maxSteps]step
	steps []step

	start time.Duration
	i     int // hop in progress
	// serving is set while hop i's CPU work runs: a request has at most one
	// event pending, so this flag tells wake which of the two it is.
	serving bool
	arrive  time.Duration // when hop i's network leg ended
	queued  time.Duration // hop i's wait for a core
	wake    func()        // ch.resume, bound once
}

// newChain starts a request's walk: it opens the request's trace (tenant
// keyed, as the shared collector is) and binds the chain's callback. Hops are
// added with add, and run sets it going.
func (c *Config) newChain(arch string, req *l7.Request, done func(time.Duration, int)) *chain {
	ch := &chain{sim: c.Sim, tracer: c.Tracer, done: done}
	ch.steps = ch.buf[:0]
	ch.wake = ch.resume
	if c.Tracer != nil {
		ch.tr = c.Tracer.StartTenant(arch, req.Tenant, req.Method+" "+req.Path)
	}
	return ch
}

// add appends hops to the request path.
func (ch *chain) add(steps ...step) { ch.steps = append(ch.steps, steps...) }

// run walks the hops, charging each hop's latency then CPU and recording one
// span per hop into the trace (when on — the end-to-end observability of
// §4.1.1), then finishes the trace with status and calls done with the total
// elapsed time.
func (ch *chain) run(status int) {
	ch.status = status
	ch.start = ch.sim.Now()
	ch.next()
}

// next starts hop i's network leg, or finishes the request after the last hop.
func (ch *chain) next() {
	if ch.i >= len(ch.steps) {
		if ch.tr != nil {
			ch.tracer.Finish(ch.tr, ch.status)
		}
		ch.done(ch.sim.Now()-ch.start, ch.status)
		return
	}
	if lat := ch.steps[ch.i].lat; lat > 0 {
		ch.sim.After(lat, ch.wake)
	} else {
		ch.arrived()
	}
}

// resume is the chain's one scheduled callback: the end of hop i's CPU work
// while serving, the end of its network leg otherwise.
func (ch *chain) resume() {
	if ch.serving {
		ch.served()
	} else {
		ch.arrived()
	}
}

// arrived puts hop i's CPU work on its processor.
func (ch *chain) arrived() {
	st := &ch.steps[ch.i]
	if st.at == nil {
		ch.i++
		ch.next()
		return
	}
	ch.arrive = ch.sim.Now()
	// The queue wait Exec is about to experience: its core picks the
	// earliest-free core, so the wait equals QueueDelay at submit.
	ch.queued = st.at.Proc.QueueDelay()
	ch.serving = true
	st.at.Proc.Exec(st.cpu, ch.wake)
}

// served records hop i's span and moves to the next hop.
func (ch *chain) served() {
	ch.serving = false
	if ch.tr != nil {
		st := &ch.steps[ch.i]
		ch.tr.AddHop(trace.Hop{
			Name:   st.at.Name,
			Start:  ch.arrive,
			End:    ch.sim.Now(),
			Net:    st.lat,
			Queue:  ch.queued,
			CPU:    st.cpu,
			Crypto: st.crypto,
		})
	}
	ch.i++
	ch.next()
}

// Config carries everything an assembly needs.
type Config struct {
	Sim    *sim.Sim
	Costs  netmodel.Costs
	Engine *l7.Engine
	// Asym is invoked once per new-connection request for each mTLS
	// negotiation point.
	Asym AsymPolicy
	// EBPFRedirect selects eBPF (true) or iptables (false) redirection for
	// architectures that redirect app traffic to a local proxy.
	EBPFRedirect bool
	// Tracer, when non-nil, traces every simulated request: one trace per
	// Send, one span per hop, finished with the request's status and run
	// through the tracer's head/tail retention.
	Tracer *trace.Tracer
}

// redirectCost returns the CPU of redirecting one request body to the local
// proxy. ebpf selects Canal's socket-to-socket redirection; Istio and
// Ambient use the iptables path (Fig 21).
func (c *Config) redirectCost(ebpf bool, bodyBytes int) time.Duration {
	if ebpf {
		return c.Costs.RedirectEBPF + c.Costs.ContextSw + c.Costs.CopyCost(bodyBytes)
	}
	return 2*c.Costs.ContextSw + 2*c.Costs.StackPass + 2*c.Costs.CopyCost(bodyBytes)
}

// route consults the shared L7 engine for the status to answer with; on a
// local response (403/429/503) the request completes immediately at the
// deciding hop.
func (c *Config) route(req *l7.Request) int {
	_, err := c.Engine.Route(c.Sim.Now(), req)
	return l7.StatusOf(err)
}

// tlsCost returns the per-hop symmetric crypto cost for a body, when mTLS is
// active on the hop.
func (c *Config) tlsCost(req *l7.Request, bodyBytes int) time.Duration {
	if !req.TLS {
		return 0
	}
	return c.Costs.SymCryptoCost(bodyBytes)
}

// asymFor returns the handshake terms for a request (zero unless it opens a
// new connection over TLS).
func (c *Config) asymFor(req *l7.Request) (time.Duration, time.Duration) {
	if !req.TLS || !req.NewConnection || c.Asym == nil {
		return 0, 0
	}
	return c.Asym()
}

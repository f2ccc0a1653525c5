// Package trace is the distributed-tracing subsystem of the mesh: every
// request — simulated or on the live gateway path — can carry a trace whose
// spans attribute its end-to-end latency hop by hop, splitting each hop into
// network travel, queue wait, CPU service time, and the crypto share of that
// service time. The paper's evaluation is fundamentally such a dissection
// (which proxy hops cost what, and where queueing sets in), so this package
// is the substrate on which overhead claims are made and verified.
//
// Determinism: TraceID/SpanID generation draws from an explicitly seeded
// *rand.Rand and timestamps come from an injected clock (sim.Now on the
// simulated path), so two same-seed simulation runs produce byte-identical
// trace trees. The live gateway path uses NewLive, which pins a wall-clock
// epoch at construction.
package trace

import (
	"encoding/hex"
	"fmt"
	"math/rand"
	"sync"
	"time"
)

// TraceID is a W3C-trace-context 16-byte trace identifier.
type TraceID [16]byte

// SpanID is a W3C-trace-context 8-byte span identifier.
type SpanID [8]byte

// IsZero reports whether the ID is the invalid all-zero value.
func (id TraceID) IsZero() bool { return id == TraceID{} }

// IsZero reports whether the ID is the invalid all-zero value.
func (id SpanID) IsZero() bool { return id == SpanID{} }

// String renders the ID as lower-case hex, the W3C wire form.
func (id TraceID) String() string {
	var b [2 * len(id)]byte
	hex.Encode(b[:], id[:])
	return string(b[:])
}

// String renders the ID as lower-case hex, the W3C wire form.
func (id SpanID) String() string {
	var b [2 * len(id)]byte
	hex.Encode(b[:], id[:])
	return string(b[:])
}

// MarshalJSON emits the hex form so exported traces are human-joinable with
// access logs and traceparent headers.
func (id TraceID) MarshalJSON() ([]byte, error) {
	return []byte(`"` + id.String() + `"`), nil
}

// MarshalJSON emits the hex form.
func (id SpanID) MarshalJSON() ([]byte, error) {
	return []byte(`"` + id.String() + `"`), nil
}

// UnmarshalJSON parses the hex form written by MarshalJSON.
func (id *TraceID) UnmarshalJSON(b []byte) error {
	return unhexJSON(b, id[:], "trace id")
}

// UnmarshalJSON parses the hex form written by MarshalJSON.
func (id *SpanID) UnmarshalJSON(b []byte) error {
	return unhexJSON(b, id[:], "span id")
}

func unhexJSON(b, dst []byte, what string) error {
	if len(b) < 2 || b[0] != '"' || b[len(b)-1] != '"' {
		return fmt.Errorf("trace: %s must be a hex string", what)
	}
	raw, err := hex.DecodeString(string(b[1 : len(b)-1]))
	if err != nil || len(raw) != len(dst) {
		return fmt.Errorf("trace: bad %s %q", what, b)
	}
	copy(dst, raw)
	return nil
}

// Span is one timed region of a trace. The root span covers the whole
// request; hop spans (Parent = root) each cover one proxy/app traversal and
// carry the latency attribution the critical-path analyzer consumes.
type Span struct {
	ID     SpanID `json:"id"`
	Parent SpanID `json:"parent,omitempty"`
	Name   string `json:"name"`
	// Start/End are offsets on the tracer's clock (virtual time under the
	// simulator, offsets from the tracer epoch on the live path).
	Start time.Duration `json:"start"`
	End   time.Duration `json:"end"`
	// Net is wall-clock spent getting to this hop (wire travel plus any
	// handshake waits that consume no local CPU). It precedes Start.
	Net time.Duration `json:"net,omitempty"`
	// Queue is time spent waiting for a core at this hop's processor.
	Queue time.Duration `json:"queue,omitempty"`
	// CPU is the service time charged on the hop's processor.
	CPU time.Duration `json:"cpu,omitempty"`
	// Crypto is the share of CPU spent on symmetric/asymmetric crypto, so
	// crypto hops are attributable separately from proxy logic.
	Crypto time.Duration `json:"crypto,omitempty"`
	// WAN is wall-clock spent crossing an inter-region peering link. It is
	// kept apart from Net so the critical-path analyzer can attribute the
	// cost of cross-region spillover as its own segment.
	WAN time.Duration `json:"wan,omitempty"`
}

// Hop carries the attribution of one request hop into Trace.AddHop.
type Hop struct {
	Name   string
	Start  time.Duration
	End    time.Duration
	Net    time.Duration
	Queue  time.Duration
	CPU    time.Duration
	Crypto time.Duration
	WAN    time.Duration
}

// Trace is the span tree of one end-to-end request: Spans[0] is the root,
// later spans are hops in path order, each parented on the root.
type Trace struct {
	ID   TraceID `json:"id"`
	Arch string  `json:"arch,omitempty"`
	Name string  `json:"name"`
	// Tenant keys the trace to the tenant whose request it records, so the
	// shared collector's exports stay attributable per tenant. Traces
	// started on the request path must carry it (StartTenant /
	// StartRemoteTenant); infrastructure traces may leave it empty.
	Tenant  string `json:"tenant,omitempty"`
	Status  int    `json:"status"`
	Sampled bool   `json:"sampled"`
	Spans   []Span `json:"spans"`

	tracer *Tracer
}

// Root returns the root span.
func (t *Trace) Root() *Span { return &t.Spans[0] }

// Hops returns the hop spans in path order.
func (t *Trace) Hops() []Span { return t.Spans[1:] }

// Total returns the root span's duration (end-to-end latency once finished).
func (t *Trace) Total() time.Duration { return t.Spans[0].End - t.Spans[0].Start }

// AddHop appends one hop span parented on the root and returns its ID.
//
//canal:hotpath
func (t *Trace) AddHop(h Hop) SpanID {
	id := t.tracer.NewSpanID()
	//canal:allow hotpath amortized: Spans is preallocated for 8 hops at start; only deeper paths grow it
	t.Spans = append(t.Spans, Span{
		ID:     id,
		Parent: t.Spans[0].ID,
		Name:   h.Name,
		Start:  h.Start,
		End:    h.End,
		Net:    h.Net,
		Queue:  h.Queue,
		CPU:    h.CPU,
		Crypto: h.Crypto,
		WAN:    h.WAN,
	})
	return id
}

// Config parameterizes a Tracer.
type Config struct {
	// Seed seeds the ID generator and the head-sampling draw.
	Seed int64
	// Clock supplies timestamps; required. Simulated paths pass sim.Now.
	Clock func() time.Duration
	// HeadRate is the probability a new trace is head-sampled (kept
	// unconditionally). Values outside (0,1] mean "keep everything".
	HeadRate float64
	// SlowThreshold tail-keeps unsampled traces at least this slow; zero
	// disables the slow criterion (errors are always tail-kept).
	SlowThreshold time.Duration
	// TailCap bounds the tail ring; default 256.
	TailCap int
	// KeptCap bounds head-sampled retention: when > 0 the kept set is a
	// ring holding the newest KeptCap traces. Zero keeps everything, which
	// is right for bounded simulation runs but must not be used on a
	// long-lived live path.
	KeptCap int
}

// defaultTailCap bounds the tail ring when Config.TailCap is zero.
const defaultTailCap = 256

// liveKeptCap bounds head-sampled retention on live-path tracers: a
// long-lived HTTP process must not retain a trace per request forever
// (the same rationale as the gateway's bounded access log).
const liveKeptCap = 4096

// Tracer creates, finishes, and retains traces. It is safe for concurrent
// use on the live path; under the single-threaded simulator the mutex is
// uncontended.
type Tracer struct {
	mu   sync.Mutex
	rng  *rand.Rand
	now  func() time.Duration
	head float64
	slow time.Duration
	// kept holds head-sampled traces unbounded (sim path); when keptRing
	// is non-nil it is used instead and retention is bounded (live path).
	kept     []*Trace
	keptRing *ring
	tail     ring
	started  uint64
}

// New returns a tracer drawing IDs from a rand.Rand seeded with cfg.Seed and
// timestamps from cfg.Clock.
func New(cfg Config) *Tracer {
	if cfg.Clock == nil {
		panic("trace: Config.Clock is required")
	}
	head := cfg.HeadRate
	if head <= 0 || head > 1 {
		head = 1
	}
	cap := cfg.TailCap
	if cap <= 0 {
		cap = defaultTailCap
	}
	var keptRing *ring
	if cfg.KeptCap > 0 {
		keptRing = &ring{buf: make([]*Trace, cfg.KeptCap)}
	}
	return &Tracer{
		rng:      rand.New(rand.NewSource(cfg.Seed)),
		now:      cfg.Clock,
		head:     head,
		slow:     cfg.SlowThreshold,
		keptRing: keptRing,
		tail:     ring{buf: make([]*Trace, cap)},
	}
}

// NewLive returns a tracer for the real data path: timestamps are wall-clock
// offsets from the construction instant, the ID generator is seeded from
// that instant, and head-sampled retention is bounded (newest liveKeptCap
// traces) so a long-lived process cannot grow without limit under load.
func NewLive() *Tracer {
	epoch := time.Now() //canal:allow simdeterminism live-path tracer epoch and ID seed come from the wall clock by design
	return New(Config{
		Seed:    epoch.UnixNano(),
		Clock:   func() time.Duration { return time.Since(epoch) }, //canal:allow simdeterminism live-path span timestamps are wall-clock offsets from the tracer epoch
		KeptCap: liveKeptCap,
	})
}

// Now reads the tracer's clock, so callers can stamp hop boundaries in the
// same time domain as the spans.
func (tr *Tracer) Now() time.Duration { return tr.now() }

// NewSpanID allocates a span ID from the seeded generator.
func (tr *Tracer) NewSpanID() SpanID {
	//canal:allow hotpath the seeded ID generator must serialize on the concurrent live path; uncontended under the sim
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return tr.newSpanIDLocked()
}

func (tr *Tracer) newSpanIDLocked() SpanID {
	var id SpanID
	for id.IsZero() {
		tr.rng.Read(id[:])
	}
	return id
}

// Start begins a new trace with a fresh TraceID, rooted at the current clock
// reading. The head-sampling decision is drawn here, so propagated contexts
// carry a consistent sampled flag end to end. Request-path traces must use
// StartTenant instead: the collector is shared across tenants, and an
// unkeyed trace carrying request data is exactly the leak canalvet's
// tenantflow analyzer reports.
func (tr *Tracer) Start(arch, name string) *Trace {
	return tr.StartTenant(arch, "", name)
}

// StartTenant is Start keyed to the tenant whose request the trace records.
func (tr *Tracer) StartTenant(arch, tenant, name string) *Trace {
	tr.mu.Lock()
	var id TraceID
	for id.IsZero() {
		tr.rng.Read(id[:])
	}
	root := tr.newSpanIDLocked()
	sampled := tr.head >= 1 || tr.rng.Float64() < tr.head
	tr.started++
	tr.mu.Unlock()
	return tr.start(id, SpanID{}, root, arch, tenant, name, sampled)
}

// StartRemote begins a trace joined to a propagated context (an extracted
// traceparent): the remote trace ID is reused and the remote span becomes
// the parent of this trace's root. Like Start, request-path callers must
// use the tenant-keyed variant.
func (tr *Tracer) StartRemote(id TraceID, parent SpanID, sampled bool, arch, name string) *Trace {
	return tr.StartRemoteTenant(id, parent, sampled, arch, "", name)
}

// StartRemoteTenant is StartRemote keyed to the requesting tenant.
func (tr *Tracer) StartRemoteTenant(id TraceID, parent SpanID, sampled bool, arch, tenant, name string) *Trace {
	tr.mu.Lock()
	root := tr.newSpanIDLocked()
	tr.started++
	tr.mu.Unlock()
	return tr.start(id, parent, root, arch, tenant, name, sampled)
}

func (tr *Tracer) start(id TraceID, parent, root SpanID, arch, tenant, name string, sampled bool) *Trace {
	// Room for the root plus seven hops before AddHop's append ever grows
	// the slice — deeper than any proxy architecture modeled here.
	spans := make([]Span, 1, 8)
	spans[0] = Span{ID: root, Parent: parent, Name: name, Start: tr.now()}
	return &Trace{
		ID:      id,
		Arch:    arch,
		Name:    name,
		Tenant:  tenant,
		Sampled: sampled,
		Spans:   spans,
		tracer:  tr,
	}
}

// Finish stamps the root span's end, records the status, and applies
// retention: head-sampled traces are kept (bounded to the newest KeptCap
// when configured); unsampled traces that are errored (HTTP >= 400) or
// slower than SlowThreshold enter the bounded tail ring, evicting the
// oldest tail entry when full.
func (tr *Tracer) Finish(t *Trace, status int) {
	end := tr.now()
	tr.mu.Lock()
	defer tr.mu.Unlock()
	t.Spans[0].End = end
	t.Status = status
	if t.Sampled {
		if tr.keptRing != nil {
			tr.keptRing.push(t)
		} else {
			tr.kept = append(tr.kept, t)
		}
		return
	}
	if status >= 400 || (tr.slow > 0 && t.Total() >= tr.slow) {
		tr.tail.push(t)
	}
}

// Kept returns the head-sampled finished traces in completion order (the
// newest KeptCap of them when retention is bounded).
func (tr *Tracer) Kept() []*Trace {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if tr.keptRing != nil {
		return tr.keptRing.items()
	}
	out := make([]*Trace, len(tr.kept))
	copy(out, tr.kept)
	return out
}

// Tail returns the tail-kept (slow/errored, unsampled) traces, oldest first.
func (tr *Tracer) Tail() []*Trace {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return tr.tail.items()
}

// Started returns how many traces have been started.
func (tr *Tracer) Started() uint64 {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return tr.started
}

// ring is a fixed-capacity overwrite-oldest buffer of traces.
type ring struct {
	buf  []*Trace
	next int
	n    int
}

func (r *ring) push(t *Trace) {
	r.buf[r.next] = t
	r.next = (r.next + 1) % len(r.buf)
	if r.n < len(r.buf) {
		r.n++
	}
}

// items returns the retained traces oldest-first.
func (r *ring) items() []*Trace {
	out := make([]*Trace, 0, r.n)
	start := r.next - r.n
	if start < 0 {
		start += len(r.buf)
	}
	for i := 0; i < r.n; i++ {
		out = append(out, r.buf[(start+i)%len(r.buf)])
	}
	return out
}

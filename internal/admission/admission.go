// Package admission is the gateway's proactive overload-control layer: the
// piece that keeps a multi-tenant shard alive in the window between "a noisy
// neighbor appeared" and "anomaly detection migrated it to a sandbox" (§6.2
// handles the latter; migration takes tens of seconds, and this package
// covers the former).
//
// It composes three classic mechanisms:
//
//   - Queue: a weighted deficit-round-robin (WDRR) scheduler with one FIFO
//     per tenant at each gateway replica, so one tenant's burst occupies its
//     own queue instead of starving everyone (fq_codel-style: DRR across
//     tenant queues, CoDel within each).
//   - CoDel: per-tenant controlled-delay queue management — when a queue's
//     sojourn time stays above target for an interval, requests are shed at
//     dequeue with an interval/sqrt(count) cadence, keeping standing queues
//     short without harming bursts.
//   - Limiter: an AIMD adaptive concurrency limit per service that tracks
//     observed latency against a self-learned baseline and sheds excess load
//     before queues build at all.
//
// Shed requests fail fast with a typed *Rejection (HTTP 429 semantics plus a
// Retry-After hint) instead of timing out, and RetryBudget keeps retries from
// amplifying overload. Everything takes explicit virtual-time "now"
// arguments, so one implementation serves both the discrete-event simulator
// and the real HTTP gateway (which feeds wall-clock offsets).
package admission

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"canalmesh/internal/telemetry"
)

// Reason classifies why a request was shed.
type Reason string

const (
	// ReasonQueueFull: the tenant's per-replica queue hit its cap.
	ReasonQueueFull Reason = "queue-full"
	// ReasonCoDel: CoDel shed the request at dequeue to drain a standing
	// queue.
	ReasonCoDel Reason = "codel"
	// ReasonLimiter: the adaptive concurrency limiter refused new work.
	ReasonLimiter Reason = "limiter"
	// ReasonFairShare: the tenant exceeded its fair share of the gateway's
	// concurrency limit while other tenants were active.
	ReasonFairShare Reason = "fair-share"
	// ReasonRetryBudget: a retry arrived with the tenant's retry budget
	// exhausted.
	ReasonRetryBudget Reason = "retry-budget"
)

// Rejection is the typed, fast-failing error returned for shed requests. It
// maps to HTTP 429 with a Retry-After hint — the contract that lets clients
// back off instead of timing out.
type Rejection struct {
	Tenant     string
	Service    string
	Reason     Reason
	Sojourn    time.Duration // time spent queued before shedding (0 if rejected at admission)
	RetryAfter time.Duration // suggested client backoff
}

// Error implements error.
func (r *Rejection) Error() string {
	return fmt.Sprintf("admission: %s/%s shed (%s), retry after %v", r.Tenant, r.Service, r.Reason, r.RetryAfter)
}

// Config tunes a gateway's admission layer. The zero value is usable: every
// field falls back to the package default.
type Config struct {
	// Quantum is the WDRR deficit replenished per round, in CPU-cost units.
	// Default: 500µs (~2 typical gateway L7 requests).
	Quantum time.Duration
	// PerTenantCap bounds each tenant's queue at each replica. Default 128.
	PerTenantCap int
	// Target is the CoDel target sojourn time. Default 2ms.
	Target time.Duration
	// Interval is the CoDel control interval. Default 20ms.
	Interval time.Duration
	// Weights maps tenant name to its WDRR weight (default 1.0).
	Weights map[string]float64
	// Limiter tunes the per-service AIMD concurrency limiter.
	Limiter LimiterConfig
	// RetryBudgetRatio is the fraction of successes earned back as retry
	// tokens. Default 0.1 (10% retry budget).
	RetryBudgetRatio float64
	// RetryAfter is the backoff hint attached to rejections. Default 50ms.
	RetryAfter time.Duration
}

// Defaults for Config fields.
const (
	DefaultQuantum          = 500 * time.Microsecond
	DefaultPerTenantCap     = 128
	DefaultTarget           = 2 * time.Millisecond
	DefaultInterval         = 20 * time.Millisecond
	DefaultRetryBudgetRatio = 0.1
	DefaultRetryAfter       = 50 * time.Millisecond
)

// WithDefaults returns c with zero fields replaced by package defaults.
func (c Config) WithDefaults() Config {
	if c.Quantum <= 0 {
		c.Quantum = DefaultQuantum
	}
	if c.PerTenantCap <= 0 {
		c.PerTenantCap = DefaultPerTenantCap
	}
	if c.Target <= 0 {
		c.Target = DefaultTarget
	}
	if c.Interval <= 0 {
		c.Interval = DefaultInterval
	}
	if c.RetryBudgetRatio <= 0 {
		c.RetryBudgetRatio = DefaultRetryBudgetRatio
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = DefaultRetryAfter
	}
	c.Limiter = c.Limiter.withDefaults()
	return c
}

// Weight returns the WDRR weight for a tenant (1.0 when unset).
func (c Config) Weight(tenant string) float64 {
	if w, ok := c.Weights[tenant]; ok && w > 0 {
		return w
	}
	return 1.0
}

// TenantMetrics aggregates one tenant's admission observability.
type TenantMetrics struct {
	// Admitted counts requests that ran to completion.
	Admitted *telemetry.Counter
	// Shed counts requests rejected or dropped for any reason.
	Shed *telemetry.Counter
	// Sojourn samples queue wait times (seconds) of admitted requests.
	Sojourn *telemetry.Sample
}

// Metrics is the admission layer's telemetry root: per-reason shed counters
// plus lazily created per-tenant breakdowns. All methods are safe for
// concurrent use (the real gateway path is multi-goroutine).
type Metrics struct {
	// ShedByReason counts sheds per Reason across all tenants.
	mu           sync.Mutex
	shedByReason map[Reason]*telemetry.Counter
	tenants      map[string]*TenantMetrics
}

// NewMetrics returns an empty metrics root.
func NewMetrics() *Metrics {
	return &Metrics{
		shedByReason: make(map[Reason]*telemetry.Counter),
		tenants:      make(map[string]*TenantMetrics),
	}
}

// Tenant returns (creating if needed) the named tenant's metrics.
func (m *Metrics) Tenant(name string) *TenantMetrics {
	//canal:allow hotpath tenant registry must serialize on the concurrent live gateway; uncontended under the sim
	m.mu.Lock()
	defer m.mu.Unlock()
	tm, ok := m.tenants[name]
	if !ok {
		//canal:allow hotpath lazy init: allocates once per tenant at first sight, not per request
		tm = &TenantMetrics{Admitted: &telemetry.Counter{}, Shed: &telemetry.Counter{}, Sojourn: &telemetry.Sample{}}
		m.tenants[name] = tm
	}
	return tm
}

// ShedCounter returns (creating if needed) the counter for a shed reason.
func (m *Metrics) ShedCounter(r Reason) *telemetry.Counter {
	//canal:allow hotpath shed-reason registry must serialize on the concurrent live gateway; uncontended under the sim
	m.mu.Lock()
	defer m.mu.Unlock()
	c, ok := m.shedByReason[r]
	if !ok {
		//canal:allow hotpath lazy init: allocates once per shed reason, not per request
		c = &telemetry.Counter{}
		m.shedByReason[r] = c
	}
	return c
}

// RecordShed counts one shed for the tenant and reason.
func (m *Metrics) RecordShed(tenant string, r Reason) {
	m.ShedCounter(r).Inc()
	m.Tenant(tenant).Shed.Inc()
}

// RecordAdmit counts one completed request. The live path has no queue, so
// it records no sojourn; the simulated WDRR queue observes real sojourns
// itself.
func (m *Metrics) RecordAdmit(tenant string) {
	m.Tenant(tenant).Admitted.Inc()
}

// ShedTotal sums sheds across all reasons.
func (m *Metrics) ShedTotal() float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	var sum float64
	for _, c := range m.shedByReason {
		sum += c.Value()
	}
	return sum
}

// FairnessIndex returns Jain's fairness index over per-tenant admitted
// counts: 1.0 when every tenant got equal goodput, approaching 1/n under
// total capture by one tenant.
func (m *Metrics) FairnessIndex() float64 {
	m.mu.Lock()
	vals := make([]float64, 0, len(m.tenants))
	for _, tm := range m.tenants {
		vals = append(vals, tm.Admitted.Value())
	}
	m.mu.Unlock()
	// Float addition is not associative: summing in map-iteration order can
	// change the index in the last ulps between identical runs. Sort first
	// so regenerated tables are byte-stable.
	sort.Float64s(vals)
	return telemetry.JainIndex(vals)
}

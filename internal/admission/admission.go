// Package admission is the gateway's proactive overload-control layer: the
// piece that keeps a multi-tenant shard alive while a noisy neighbor is
// still being found (§6.2's anomaly handling is the slower, later step).
//
// It holds what the live gateway runs and the simulated one shares:
//
//   - HTTPController: one gateway-wide adaptive concurrency limit and
//     per-tenant fair shares of it, for the real HTTP gateway.
//   - Limiter: an AIMD adaptive concurrency limit per service that tracks
//     observed latency against a self-learned baseline and sheds excess load
//     before queues build at all.
//   - RetryBudget, Config, Metrics and the typed *Rejection.
//
// The simulated gateway's per-replica queues, weighted deficit round robin
// across tenants, live in internal/gateway, their one user, so this package
// links none of the discrete-event simulator.
//
// Shed requests fail fast with a typed *Rejection (HTTP 429 semantics plus a
// Retry-After hint) instead of timing out, and RetryBudget keeps retries from
// amplifying overload. Everything takes explicit "now" arguments, so one
// implementation serves both the discrete-event simulator and the real HTTP
// gateway (which feeds wall-clock offsets).
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
	RetryAfter time.Duration // suggested client backoff
}

// Error implements error.
func (r *Rejection) Error() string {
	return fmt.Sprintf("admission: %s/%s shed (%s), retry after %v", r.Tenant, r.Service, r.Reason, r.RetryAfter)
}

// Config tunes a gateway's admission layer. The zero value is usable: every
// field falls back to the package default. Quantum shapes the simulated
// gateway's per-replica WDRR queues (internal/gateway); the live
// HTTPController keeps no queue and does not read it.
type Config struct {
	// Quantum is the WDRR deficit replenished per round, in CPU-cost units.
	// Default: 500µs (~2 typical gateway L7 requests).
	Quantum time.Duration
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
	DefaultRetryBudgetRatio = 0.1
	DefaultRetryAfter       = 50 * time.Millisecond
)

// WithDefaults returns c with zero fields replaced by package defaults.
func (c Config) WithDefaults() Config {
	if c.Quantum <= 0 {
		c.Quantum = DefaultQuantum
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
	m.mu.Lock()
	defer m.mu.Unlock()
	tm, ok := m.tenants[name]
	if !ok {
		tm = &TenantMetrics{Admitted: &telemetry.Counter{}, Shed: &telemetry.Counter{}}
		m.tenants[name] = tm
	}
	return tm
}

// ShedCounter returns (creating if needed) the counter for a shed reason.
func (m *Metrics) ShedCounter(r Reason) *telemetry.Counter {
	m.mu.Lock()
	defer m.mu.Unlock()
	c, ok := m.shedByReason[r]
	if !ok {
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

package admission

import (
	"math"
	"sync"
	"time"
)

// HTTPController adapts the admission layer to the real HTTP gateway's
// threading model: a gateway-wide AIMD limiter, per-tenant fair-share caps
// inside that limit, and per-tenant retry budgets. The real gateway has no
// per-replica CPU queue to discipline (the Go runtime owns scheduling), so
// fairness is enforced at concurrency-slot granularity: when N tenants are
// active, each may hold at most its weighted share of the global limit —
// one tenant's flash crowd saturates its own share and gets fast 429s while
// the others' shares stay open.
//
// The cost of a decision does not depend on how many tenants share the
// gateway: each tenant's state lives in one slot, looked up once per Admit
// and captured by the release function, and the weight of the active
// tenants is kept as a running sum rather than recounted per request.
//
// HTTPController is safe for concurrent use.
type HTTPController struct {
	cfg     Config
	limiter *Limiter
	metrics *Metrics
	clock   func() time.Duration

	mu    sync.Mutex
	slots map[string]*tenantSlot
	// active counts the tenants with a request in flight, and activeWeight
	// sums their weights. Both change only when a tenant's in-flight count
	// moves between 0 and 1; activeWeight is reset to exactly 0 when the
	// active set empties, so float rounding cannot accumulate across busy
	// periods.
	active       int
	activeWeight float64
}

// tenantSlot is one tenant's admission state. Its fields other than
// inflight are set once, when the tenant is first seen; inflight is guarded
// by the controller's mu.
type tenantSlot struct {
	weight   float64
	inflight int
	budget   *RetryBudget
	metrics  *TenantMetrics
}

// NewHTTPController returns a controller whose "now" is the wall-clock
// offset since creation.
func NewHTTPController(cfg Config) *HTTPController {
	start := time.Now()                                                              //canal:allow simdeterminism real-gateway adapter; sim paths inject a virtual clock via newHTTPController
	return newHTTPController(cfg, func() time.Duration { return time.Since(start) }) //canal:allow simdeterminism wall clock is this adapter's whole purpose
}

func newHTTPController(cfg Config, clock func() time.Duration) *HTTPController {
	cfg = cfg.WithDefaults()
	return &HTTPController{
		cfg:     cfg,
		limiter: NewLimiter(cfg.Limiter),
		metrics: NewMetrics(),
		clock:   clock,
		slots:   make(map[string]*tenantSlot),
	}
}

// Metrics exposes the controller's telemetry.
func (c *HTTPController) Metrics() *Metrics { return c.metrics }

// Limiter exposes the gateway-wide adaptive limiter.
func (c *HTTPController) Limiter() *Limiter { return c.limiter }

// Admit decides whether a request may enter the gateway. On admission it
// returns a release function the caller MUST invoke exactly once with the
// request's outcome; on rejection it returns a *Rejection describing the
// typed 429. Sheds are checked in order: retry budget, fair share, limiter.
func (c *HTTPController) Admit(tenant, service string, isRetry bool) (release func(ok bool), rej *Rejection) {
	now := c.clock()
	c.mu.Lock()
	s := c.slotLocked(tenant)
	if isRetry && !s.budget.Allow() {
		c.mu.Unlock()
		return nil, c.reject(s, tenant, service, ReasonRetryBudget)
	}
	if s.inflight >= c.fairShareLocked(s) {
		c.mu.Unlock()
		return nil, c.reject(s, tenant, service, ReasonFairShare)
	}
	c.enterLocked(s)
	c.mu.Unlock()

	if !c.limiter.Acquire(now) {
		c.mu.Lock()
		c.leaveLocked(s)
		c.mu.Unlock()
		return nil, c.reject(s, tenant, service, ReasonLimiter)
	}

	released := false
	return func(ok bool) {
		if released {
			return
		}
		released = true
		end := c.clock()
		c.limiter.Release(end, end-now, ok)
		c.mu.Lock()
		c.leaveLocked(s)
		c.mu.Unlock()
		if ok {
			s.budget.OnSuccess()
			s.metrics.Admitted.Inc()
		}
	}, nil
}

// reject counts a shed and builds its typed 429.
func (c *HTTPController) reject(s *tenantSlot, tenant, service string, reason Reason) *Rejection {
	c.metrics.ShedCounter(reason).Inc()
	s.metrics.Shed.Inc()
	return &Rejection{
		Tenant: tenant, Service: service, Reason: reason,
		RetryAfter: c.cfg.RetryAfter,
	}
}

// slotLocked returns (creating if needed) the tenant's slot. Requires c.mu
// held.
func (c *HTTPController) slotLocked(tenant string) *tenantSlot {
	s, ok := c.slots[tenant]
	if !ok {
		s = &tenantSlot{
			weight:  c.cfg.Weight(tenant),
			budget:  NewRetryBudget(c.cfg.RetryBudgetRatio, 0),
			metrics: c.metrics.Tenant(tenant),
		}
		c.slots[tenant] = s
	}
	return s
}

// fairShareLocked computes the tenant's concurrency cap: its weighted slice
// of the current global limit, divided among the tenants active right now
// (including the asker). Requires c.mu held.
func (c *HTTPController) fairShareLocked(s *tenantSlot) int {
	total := c.activeWeight
	if s.inflight == 0 {
		total += s.weight
	}
	share := int(math.Ceil(c.limiter.Limit() * s.weight / total))
	if share < 1 {
		share = 1
	}
	return share
}

// enterLocked counts one more request in flight for the slot's tenant.
// Requires c.mu held.
func (c *HTTPController) enterLocked(s *tenantSlot) {
	if s.inflight == 0 {
		c.active++
		c.activeWeight += s.weight
	}
	s.inflight++
}

// leaveLocked counts one request of the slot's tenant out of flight.
// Requires c.mu held.
func (c *HTTPController) leaveLocked(s *tenantSlot) {
	s.inflight--
	if s.inflight > 0 {
		return
	}
	c.active--
	if c.active == 0 {
		c.activeWeight = 0
	} else {
		c.activeWeight -= s.weight
	}
}

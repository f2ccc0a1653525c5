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
// HTTPController is safe for concurrent use.
type HTTPController struct {
	cfg     Config
	limiter *Limiter
	metrics *Metrics
	clock   func() time.Duration

	mu       sync.Mutex
	inflight map[string]int
	budgets  map[string]*RetryBudget
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
		cfg:      cfg,
		limiter:  NewLimiter(cfg.Limiter),
		metrics:  NewMetrics(),
		clock:    clock,
		inflight: make(map[string]int),
		budgets:  make(map[string]*RetryBudget),
	}
}

// Metrics exposes the controller's telemetry.
func (c *HTTPController) Metrics() *Metrics { return c.metrics }

// Limiter exposes the gateway-wide adaptive limiter.
func (c *HTTPController) Limiter() *Limiter { return c.limiter }

// Admit decides whether a request may enter the gateway. On admission it
// returns a release function the caller MUST invoke exactly once with the
// request's outcome; on rejection it returns a *Rejection describing the
// typed 429.
func (c *HTTPController) Admit(tenant, service string, isRetry bool) (release func(ok bool), rej *Rejection) {
	now := c.clock()
	reject := func(reason Reason) *Rejection {
		c.metrics.RecordShed(tenant, reason)
		return &Rejection{
			Tenant: tenant, Service: service, Reason: reason,
			RetryAfter: c.cfg.RetryAfter,
		}
	}

	if isRetry && !c.budget(tenant).Allow() {
		return nil, reject(ReasonRetryBudget)
	}

	c.mu.Lock()
	share := c.fairShareLocked(tenant)
	if c.inflight[tenant] >= share {
		c.mu.Unlock()
		return nil, reject(ReasonFairShare)
	}
	c.inflight[tenant]++
	c.mu.Unlock()

	if !c.limiter.Acquire(now) {
		c.mu.Lock()
		c.inflight[tenant]--
		c.mu.Unlock()
		return nil, reject(ReasonLimiter)
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
		if c.inflight[tenant] > 0 {
			c.inflight[tenant]--
		}
		c.mu.Unlock()
		if ok {
			c.budget(tenant).OnSuccess()
			c.metrics.RecordAdmit(tenant)
		}
	}, nil
}

// fairShareLocked computes the tenant's concurrency cap: its weighted slice
// of the current global limit, divided among the tenants active right now
// (including the asker). Requires c.mu held.
func (c *HTTPController) fairShareLocked(tenant string) int {
	w := c.cfg.Weight(tenant)
	total := w
	for t, n := range c.inflight {
		if n > 0 && t != tenant {
			total += c.cfg.Weight(t)
		}
	}
	share := int(math.Ceil(c.limiter.Limit() * w / total))
	if share < 1 {
		share = 1
	}
	return share
}

// budget returns (creating if needed) the tenant's retry budget.
func (c *HTTPController) budget(tenant string) *RetryBudget {
	c.mu.Lock()
	defer c.mu.Unlock()
	b, ok := c.budgets[tenant]
	if !ok {
		b = NewRetryBudget(c.cfg.RetryBudgetRatio, 0)
		c.budgets[tenant] = b
	}
	return b
}

package l7

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"canalmesh/internal/policy"
)

// Split is one arm of a weighted traffic split: a destination subset name
// (e.g. "v1", "v2", "canary") and its relative weight.
type Split struct {
	Subset string
	Weight int
}

// RateLimitSpec configures per-rule rate limiting.
type RateLimitSpec struct {
	RPS   float64
	Burst float64
}

// FaultSpec injects faults for testing-in-production: a percentage of
// matching requests is aborted with a fixed status, and/or delayed.
type FaultSpec struct {
	AbortPercent float64 // 0-100
	AbortStatus  int     // status returned on aborted requests
	DelayPercent float64 // 0-100
	Delay        time.Duration
}

// Rule is one route rule for a destination service. Rules are evaluated in
// order; the first match wins.
type Rule struct {
	Name        string
	Match       RouteMatch
	Splits      []Split // empty means route to the default subset
	PathRewrite string
	RateLimit   *RateLimitSpec
	Retry       RetryPolicy
	MirrorTo    string
	Fault       *FaultSpec
	// Timeout bounds the upstream round trip; zero means no limit.
	Timeout time.Duration
	// SetHeaders adds/overrides request headers toward the upstream.
	SetHeaders map[string]string
	// RemoveHeaders strips request headers before forwarding.
	RemoveHeaders []string
}

// ServiceConfig is the full L7 configuration of one destination service.
type ServiceConfig struct {
	Service       string
	DefaultSubset string
	Rules         []Rule
	Authz         []AuthzRule
	// ServiceRateLimit applies before any rule (tenant-level quota).
	ServiceRateLimit *RateLimitSpec
}

// NumRules returns the total rule count (routing + authz), the quantity
// control planes use to size configuration pushes.
func (c *ServiceConfig) NumRules() int { return len(c.Rules) + len(c.Authz) }

// Engine routes requests for a set of services. It is safe for concurrent
// use by the real gateway; the simulator calls it single-threaded.
type Engine struct {
	mu       sync.RWMutex // guards services, and serialises the writers
	services map[string]*Service
	// rngMu guards rng: fault and split draws happen on the request path of
	// the concurrent live gateway, and nothing else is taken there.
	rngMu sync.Mutex
	rng   *rand.Rand
	// policy is the compiled intention dispatch table authorization is
	// evaluated against. Configure translates each service's AuthzRule list
	// into intentions and installs them here incrementally; Route's
	// per-request check is a bucket lookup, never a linear rule scan.
	policy *policy.Compiler
}

// Service is one service's installed configuration, compiled: what Configure
// publishes and Route decides against. Nothing in it is written once it is
// published, but the two kinds of leaf that synchronise themselves — the
// token buckets, and the throttle slot SetServiceRate and ClearServiceRate
// store into. A caller that keeps the handle routes without the engine's
// registry lock, and keeps routing against this configuration until it
// fetches the handle again after the next Configure.
type Service struct {
	engine *Engine
	cfg    ServiceConfig
	rules  []ruleState // parallel to cfg.Rules
	// throttle is the service-level limiter: cfg.ServiceRateLimit's when the
	// configuration has one, replaced at run time by §6.2's throttling.
	throttle atomic.Pointer[TokenBucket]
	// authzIDs are the policy-compiler intention IDs installed for this
	// service's Authz rules, deleted on reconfigure or Remove.
	authzIDs []string
}

// ruleState is what Configure works out for one rule ahead of the requests,
// so Route neither concatenates nor sums on the hot path.
type ruleState struct {
	limiter     *TokenBucket // nil without a RateLimit
	rlReason    string
	abortReason string
	splitTotal  int // sum of the split weights
}

// NewEngine returns an engine whose traffic splits draw from the given seed,
// keeping simulated experiments deterministic.
func NewEngine(seed int64) *Engine {
	return &Engine{
		services: make(map[string]*Service),
		rng:      rand.New(rand.NewSource(seed)),
		policy:   policy.NewCompiler(policy.Config{Seed: seed}),
	}
}

// Policy exposes the engine's compiled policy table, letting control-plane
// layers install tenant intentions directly (beyond per-service AuthzRule
// translation) and letting tests and benches inspect the compiled state.
func (e *Engine) Policy() *policy.Compiler { return e.policy }

// authzIntentions translates a service's AuthzRule list into policy
// intentions: wildcard source tenant (AuthzRule predates tenancy), exact
// destination, precedence zero — under which the compiled winner selection
// (deny beats allow, then installation order) gives the AuthzRule semantics.
func authzIntentions(service string, rules []AuthzRule) []policy.Intention {
	out := make([]policy.Intention, 0, len(rules))
	for i, a := range rules {
		in := policy.Intention{
			ID:     fmt.Sprintf("%s/authz/%d", service, i),
			Name:   a.Name,
			Src:    a.SourceService,
			Dst:    policy.Exact(service),
			Method: a.Method,
			Path:   a.Path,
			Action: policy.ActionAllow,
		}
		if a.Action == AuthzDeny {
			in.Action = policy.ActionDeny
		}
		out = append(out, in)
	}
	return out
}

// Configure installs (or replaces) a service's configuration. Everything a
// request will read is compiled here, before it is published; a configuration
// that does not compile — a bad split, an invalid regex in a rule or an
// AuthzRule — is an error and leaves what was installed in place.
func (e *Engine) Configure(cfg ServiceConfig) error {
	if cfg.Service == "" {
		return fmt.Errorf("l7: service name required")
	}
	st := &Service{engine: e, cfg: cfg, rules: make([]ruleState, len(cfg.Rules))}
	// The rules are compiled in a copy: the caller's slice is not written.
	st.cfg.Rules = slices.Clone(cfg.Rules)
	for i := range st.cfg.Rules {
		r, rs := &st.cfg.Rules[i], &st.rules[i]
		for _, s := range r.Splits {
			if s.Weight < 0 {
				return fmt.Errorf("l7: rule %s: negative weight", r.Name)
			}
			rs.splitTotal += s.Weight
		}
		if len(r.Splits) > 0 && rs.splitTotal == 0 {
			return fmt.Errorf("l7: rule %s: splits sum to zero", r.Name)
		}
		if err := r.Match.compile(); err != nil {
			return fmt.Errorf("l7: rule %s: %w", r.Name, err)
		}
		if r.RateLimit != nil {
			rs.limiter = NewTokenBucket(r.RateLimit.RPS, r.RateLimit.Burst)
			rs.rlReason = "rule rate limit: " + r.Name
		}
		if r.Fault != nil && r.Fault.AbortPercent > 0 {
			rs.abortReason = "fault injection: abort by rule " + r.Name
		}
	}
	if cfg.ServiceRateLimit != nil {
		st.throttle.Store(NewTokenBucket(cfg.ServiceRateLimit.RPS, cfg.ServiceRateLimit.Burst))
	}
	intents := authzIntentions(cfg.Service, cfg.Authz)
	st.authzIDs = make([]string, len(intents))
	for i := range intents {
		st.authzIDs[i] = intents[i].ID
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	var prevIDs []string
	if prev, ok := e.services[cfg.Service]; ok {
		prevIDs = prev.authzIDs
	}
	// One atomic delta: the service's old intentions out, the new ones in.
	// Only the touched dispatch buckets recompile.
	if _, err := e.policy.Apply(prevIDs, intents); err != nil {
		return fmt.Errorf("l7: service %s: %w", cfg.Service, err)
	}
	e.services[cfg.Service] = st
	return nil
}

// Remove deletes a service's configuration.
func (e *Engine) Remove(service string) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if st, ok := e.services[service]; ok {
		// Delete-only Apply cannot fail: nothing to compile.
		_, _ = e.policy.Apply(st.authzIDs, nil)
		delete(e.services, service)
	}
}

// Services returns configured service names, sorted.
func (e *Engine) Services() []string {
	e.mu.RLock()
	defer e.mu.RUnlock()
	out := make([]string, 0, len(e.services))
	for s := range e.services {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

// Config returns the configuration a service was installed with.
func (e *Engine) Config(service string) (ServiceConfig, bool) {
	st := e.Service(service)
	if st == nil {
		return ServiceConfig{}, false
	}
	return st.cfg, true
}

// Service returns the handle of a service's installed configuration, or nil
// for a name that has none. The next Configure of the name installs a new
// handle and leaves this one as it was.
func (e *Engine) Service(name string) *Service {
	//canal:allow hotpath uncontended RLock guarding the registry map; a caller that keeps the handle skips it
	e.mu.RLock()
	st := e.services[name]
	e.mu.RUnlock()
	return st
}

// Route routes one request at virtual time now, against whatever is installed
// under r.Service at this moment. A nil error with Decision.Allowed=false
// never happens: routing failures are expressed as *DecisionError with the
// local status to return.
//
//canal:hotpath
func (e *Engine) Route(now time.Duration, r *Request) (Decision, error) {
	return e.Service(r.Service).Route(now, r)
}

// Route is Engine.Route for the holder of a handle: the same decision with no
// registry lookup. A nil handle refuses the request as unconfigured.
//
// The match loop and the allow path are allocation-free; the reject paths
// allocate exactly one *DecisionError (their request is already failed).
//
//canal:hotpath
func (st *Service) Route(now time.Duration, r *Request) (Decision, error) {
	if st == nil {
		//canal:allow hotpath reject path: one error allocation for a request that is already failed
		return Decision{}, &DecisionError{Status: StatusUnavailable, Reason: "no route configuration for service " + r.Service}
	}

	// Authorization is a compiled-table lookup: O(candidate bucket), not
	// O(installed rules). Semantics are those documented on AuthzRule
	// (authzIntentions pins the translation).
	if v := st.engine.policy.Eval(policy.Query{
		SrcTenant:  r.Tenant,
		SrcService: r.SourceService,
		DstService: r.Service,
		Method:     r.Method,
		Path:       r.Path,
		Headers:    r.Headers,
	}); !v.Allowed {
		//canal:allow hotpath reject path: one error allocation for a request that is already failed
		return Decision{DenyReason: v.Reason}, &DecisionError{Status: StatusForbidden, Reason: v.Reason}
	}

	// One load: a ClearServiceRate between a nil check and the draw cannot
	// take the bucket away.
	if lim := st.throttle.Load(); lim != nil && !lim.Allow(now) {
		//canal:allow hotpath reject path: one error allocation for a request that is already failed
		return Decision{RateLimited: true}, &DecisionError{Status: StatusTooManyRequests, Reason: "service rate limit"}
	}

	d := Decision{Allowed: true, Subset: st.cfg.DefaultSubset}
	for i := range st.cfg.Rules {
		rule, rs := &st.cfg.Rules[i], &st.rules[i]
		if !rule.Match.Matches(r) {
			continue
		}
		if rs.limiter != nil && !rs.limiter.Allow(now) {
			return Decision{RateLimited: true, Rule: rule.Name},
				//canal:allow hotpath reject path: one error allocation; the reason string is precomputed at Configure
				&DecisionError{Status: StatusTooManyRequests, Reason: rs.rlReason}
		}
		d.Rule = rule.Name
		d.PathRewrite = rule.PathRewrite
		d.Retry = rule.Retry
		d.MirrorTo = rule.MirrorTo
		d.Timeout = rule.Timeout
		d.SetHeaders = rule.SetHeaders
		d.RemoveHeaders = rule.RemoveHeaders
		if f := rule.Fault; f != nil {
			if f.AbortPercent > 0 && st.engine.roll() < f.AbortPercent {
				status := f.AbortStatus
				if status == 0 {
					status = StatusUnavailable
				}
				return Decision{Rule: rule.Name},
					//canal:allow hotpath reject path: one error allocation; the reason string is precomputed at Configure
					&DecisionError{Status: status, Reason: rs.abortReason}
			}
			if f.DelayPercent > 0 && st.engine.roll() < f.DelayPercent {
				d.Delay = f.Delay
			}
		}
		if len(rule.Splits) > 0 {
			d.Subset = st.engine.pickSplit(rule.Splits, rs.splitTotal)
		}
		return d, nil
	}
	return d, nil
}

// roll draws a percentage in [0, 100).
func (e *Engine) roll() float64 {
	//canal:allow hotpath rng draw must serialize for the concurrent live gateway; fault injection only
	e.rngMu.Lock()
	defer e.rngMu.Unlock()
	return e.rng.Float64() * 100
}

// pickSplit draws a subset proportionally to the split weights, which sum to
// total.
func (e *Engine) pickSplit(splits []Split, total int) string {
	//canal:allow hotpath rng draw must serialize for the concurrent live gateway; split rules only
	e.rngMu.Lock()
	n := e.rng.Intn(total)
	e.rngMu.Unlock()
	for _, s := range splits {
		if n < s.Weight {
			return s.Subset
		}
		n -= s.Weight
	}
	return splits[len(splits)-1].Subset
}

// SetServiceRate installs or adjusts a service-level throttle at runtime —
// the mechanism the gateway's rapid-intervention throttling uses (§6.2).
func (e *Engine) SetServiceRate(service string, rps, burst float64) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	st, ok := e.services[service]
	if !ok {
		return fmt.Errorf("l7: unknown service %q", service)
	}
	if lim := st.throttle.Load(); lim != nil {
		lim.SetRate(rps)
	} else {
		st.throttle.Store(NewTokenBucket(rps, burst))
	}
	return nil
}

// ClearServiceRate removes a service-level throttle.
func (e *Engine) ClearServiceRate(service string) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if st, ok := e.services[service]; ok {
		st.throttle.Store(nil)
	}
}

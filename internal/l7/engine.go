package l7

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
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
	mu       sync.RWMutex
	services map[string]*serviceState
	rng      *rand.Rand
	// policy is the compiled intention dispatch table authorization is
	// evaluated against. Configure translates each service's AuthzRule list
	// into intentions and installs them here incrementally; Route's
	// per-request check is a bucket lookup, never a linear rule scan.
	policy *policy.Compiler
}

type serviceState struct {
	cfg          ServiceConfig
	ruleLimiters map[string]*TokenBucket
	svcLimiter   *TokenBucket
	// rlReason and abortReason hold per-rule decision strings built at
	// Configure time, so Route never concatenates on the hot path.
	rlReason    map[string]string
	abortReason map[string]string
	// authzIDs are the policy-compiler intention IDs installed for this
	// service's Authz rules, deleted on reconfigure or Remove.
	authzIDs []string
}

// NewEngine returns an engine whose traffic splits draw from the given seed,
// keeping simulated experiments deterministic.
func NewEngine(seed int64) *Engine {
	return &Engine{
		services: make(map[string]*serviceState),
		rng:      rand.New(rand.NewSource(seed)),
		policy:   policy.NewCompiler(policy.Config{Seed: seed}),
	}
}

// Policy exposes the engine's compiled policy table, letting control-plane
// layers install tenant intentions directly (beyond per-service AuthzRule
// translation) and letting tests and benches inspect the compiled state.
func (e *Engine) Policy() *policy.Compiler { return e.policy }

// matchToPolicy translates a route-table StringMatch into a policy predicate.
func matchToPolicy(m StringMatch) policy.Match {
	switch m.Kind {
	case MatchExact:
		return policy.Exact(m.Value)
	case MatchPrefix:
		return policy.Prefix(m.Value)
	case MatchRegex:
		return policy.Regex(m.Value)
	case MatchPresent:
		return policy.Present()
	default:
		return policy.Any()
	}
}

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
			Src:    matchToPolicy(a.SourceService),
			Dst:    policy.Exact(service),
			Method: matchToPolicy(a.Method),
			Path:   matchToPolicy(a.Path),
			Action: policy.ActionAllow,
		}
		if a.Action == AuthzDeny {
			in.Action = policy.ActionDeny
		}
		out = append(out, in)
	}
	return out
}

// Configure installs (or replaces) a service's configuration.
func (e *Engine) Configure(cfg ServiceConfig) error {
	if cfg.Service == "" {
		return fmt.Errorf("l7: service name required")
	}
	for _, r := range cfg.Rules {
		total := 0
		for _, s := range r.Splits {
			if s.Weight < 0 {
				return fmt.Errorf("l7: rule %s: negative weight", r.Name)
			}
			total += s.Weight
		}
		if len(r.Splits) > 0 && total == 0 {
			return fmt.Errorf("l7: rule %s: splits sum to zero", r.Name)
		}
	}
	st := &serviceState{
		cfg:          cfg,
		ruleLimiters: make(map[string]*TokenBucket),
		rlReason:     make(map[string]string),
		abortReason:  make(map[string]string),
	}
	for i := range st.cfg.Rules {
		r := &st.cfg.Rules[i]
		if r.RateLimit != nil {
			st.ruleLimiters[r.Name] = NewTokenBucket(r.RateLimit.RPS, r.RateLimit.Burst)
			st.rlReason[r.Name] = "rule rate limit: " + r.Name
		}
		if r.Fault != nil && r.Fault.AbortPercent > 0 {
			st.abortReason[r.Name] = "fault injection: abort by rule " + r.Name
		}
		// Compile every regex matcher now: the lazy fallback in
		// StringMatch.Matches would otherwise recompile per request.
		r.Match.compile()
	}
	if cfg.ServiceRateLimit != nil {
		st.svcLimiter = NewTokenBucket(cfg.ServiceRateLimit.RPS, cfg.ServiceRateLimit.Burst)
	}
	intents := authzIntentions(cfg.Service, st.cfg.Authz)
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
		return err
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

// Config returns the installed configuration for a service.
func (e *Engine) Config(service string) (ServiceConfig, bool) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	st, ok := e.services[service]
	if !ok {
		return ServiceConfig{}, false
	}
	return st.cfg, true
}

// Route routes one request at virtual time now. A nil error with
// Decision.Allowed=false never happens: routing failures are expressed as
// *DecisionError with the local status to return.
//
// The match loop and the allow path are allocation-free; the reject paths
// allocate exactly one *DecisionError (their request is already failed).
//
//canal:hotpath
func (e *Engine) Route(now time.Duration, r *Request) (Decision, error) {
	//canal:allow hotpath uncontended RLock guarding the config map on the concurrent live gateway
	e.mu.RLock()
	st, ok := e.services[r.Service]
	e.mu.RUnlock()
	if !ok {
		//canal:allow hotpath reject path: one error allocation for a request that is already failed
		return Decision{}, &DecisionError{Status: StatusUnavailable, Reason: "no route configuration for service " + r.Service}
	}

	// Authorization is a compiled-table lookup: O(candidate bucket), not
	// O(installed rules). Semantics are those documented on AuthzRule
	// (authzIntentions pins the translation).
	if v := e.policy.Eval(policy.Query{
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

	if st.svcLimiter != nil && !st.svcLimiter.Allow(now) {
		//canal:allow hotpath reject path: one error allocation for a request that is already failed
		return Decision{RateLimited: true}, &DecisionError{Status: StatusTooManyRequests, Reason: "service rate limit"}
	}

	d := Decision{Allowed: true, Subset: st.cfg.DefaultSubset}
	for i := range st.cfg.Rules {
		rule := &st.cfg.Rules[i]
		if !rule.Match.Matches(r) {
			continue
		}
		if lim := st.ruleLimiters[rule.Name]; lim != nil && !lim.Allow(now) {
			return Decision{RateLimited: true, Rule: rule.Name},
				//canal:allow hotpath reject path: one error allocation; the reason string is precomputed at Configure
				&DecisionError{Status: StatusTooManyRequests, Reason: st.rlReason[rule.Name]}
		}
		d.Rule = rule.Name
		d.PathRewrite = rule.PathRewrite
		d.Retry = rule.Retry
		d.MirrorTo = rule.MirrorTo
		d.Timeout = rule.Timeout
		d.SetHeaders = rule.SetHeaders
		d.RemoveHeaders = rule.RemoveHeaders
		if f := rule.Fault; f != nil {
			if f.AbortPercent > 0 && e.roll() < f.AbortPercent {
				status := f.AbortStatus
				if status == 0 {
					status = StatusUnavailable
				}
				return Decision{Rule: rule.Name},
					//canal:allow hotpath reject path: one error allocation; the reason string is precomputed at Configure
					&DecisionError{Status: status, Reason: st.abortReason[rule.Name]}
			}
			if f.DelayPercent > 0 && e.roll() < f.DelayPercent {
				d.Delay = f.Delay
			}
		}
		if len(rule.Splits) > 0 {
			d.Subset = e.pickSplit(rule.Splits)
		}
		return d, nil
	}
	return d, nil
}

// roll draws a percentage in [0, 100).
func (e *Engine) roll() float64 {
	//canal:allow hotpath rng draw must serialize for the concurrent live gateway; fault injection only
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.rng.Float64() * 100
}

// pickSplit draws a subset proportionally to the split weights.
func (e *Engine) pickSplit(splits []Split) string {
	total := 0
	for _, s := range splits {
		total += s.Weight
	}
	//canal:allow hotpath rng draw must serialize for the concurrent live gateway; split rules only
	e.mu.Lock()
	n := e.rng.Intn(total)
	e.mu.Unlock()
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
	if st.svcLimiter == nil {
		st.svcLimiter = NewTokenBucket(rps, burst)
	} else {
		st.svcLimiter.SetRate(rps)
	}
	return nil
}

// ClearServiceRate removes a service-level throttle.
func (e *Engine) ClearServiceRate(service string) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if st, ok := e.services[service]; ok {
		st.svcLimiter = nil
		st.cfg.ServiceRateLimit = nil
	}
}

// Package l7 implements the Layer-7 service-mesh engine shared by all three
// architectures in this repository (sidecar, Ambient-like, Canal): route
// matching on paths, headers and cookies, weighted traffic splitting for
// canary and A/B releases, token-bucket rate limiting, retry policy, and
// zero-trust L7 authorization.
//
// The engine is deliberately independent of both the simulator and net/http:
// simulated data planes build Requests directly, and the real TCP gateway
// adapts *http.Request into the same type, so one routing implementation
// serves both execution modes.
package l7

import (
	"fmt"
	"time"
)

// Request is the routing-relevant view of one L7 request.
type Request struct {
	Tenant        string
	Service       string // destination service name
	SourceService string
	SourcePod     string
	Method        string
	Path          string
	Headers       map[string]string
	Cookies       map[string]string
	BodyBytes     int
	NewConnection bool // true if this request opens a new transport session
	TLS           bool
}

// Header returns a header value or "".
func (r *Request) Header(name string) string {
	if r.Headers == nil {
		return ""
	}
	return r.Headers[name]
}

// Cookie returns a cookie value or "".
func (r *Request) Cookie(name string) string {
	if r.Cookies == nil {
		return ""
	}
	return r.Cookies[name]
}

// Decision is the outcome of routing one request.
type Decision struct {
	Allowed     bool
	DenyReason  string
	RateLimited bool
	Rule        string        // name of the matched route rule ("" if default)
	Subset      string        // destination subset chosen by the traffic split
	PathRewrite string        // non-empty if the rule rewrites the path
	MirrorTo    string        // non-empty if traffic is mirrored to another subset
	Delay       time.Duration // injected latency (fault injection)
	Timeout     time.Duration // upstream deadline; zero = unbounded
	// SetHeaders / RemoveHeaders are header mutations the data plane
	// applies toward the upstream. They are the installed rule's own:
	// read them, never write them.
	SetHeaders    map[string]string
	RemoveHeaders []string
}

// Status codes the engine emits for local responses.
const (
	StatusOK              = 200
	StatusForbidden       = 403
	StatusTooManyRequests = 429
	StatusBadGateway      = 502
	StatusUnavailable     = 503
)

// DecisionError wraps a routing failure with the HTTP status a proxy should
// return locally.
type DecisionError struct {
	Status int
	Reason string
}

// Error implements error.
func (e *DecisionError) Error() string {
	return fmt.Sprintf("l7: %d %s", e.Status, e.Reason)
}

// StatusOf returns the status a proxy answers a Route outcome with: 200 for a
// nil error, the *DecisionError's otherwise. Route returns no other error.
func StatusOf(err error) int {
	if err == nil {
		return StatusOK
	}
	return err.(*DecisionError).Status
}

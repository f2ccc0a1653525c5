package canal

import (
	"bytes"
	"context"
	"crypto/ecdsa"
	"crypto/rand"
	"crypto/sha256"
	"encoding/base64"
	"fmt"
	"io"
	"net/http"
	"net/http/httputil"
	"net/url"
	"slices"
	"strconv"
	"sync"
	"time"

	"canalmesh/internal/admission"
	"canalmesh/internal/l7"
	"canalmesh/internal/telemetry"
	"canalmesh/internal/trace"
)

// Identity/auth headers of the real-mode data plane. The NodeAgent signs
// each request with the workload's mesh identity; the gateway verifies the
// signature against the tenant's CA — per-request zero-trust authentication
// without trusting the network in between.
const (
	HeaderTenant    = "X-Canal-Tenant"
	HeaderService   = "X-Canal-Service"
	HeaderSource    = "X-Canal-Source"
	HeaderSourcePod = "X-Canal-Source-Pod"
	HeaderCert      = "X-Canal-Cert"
	HeaderSignature = "X-Canal-Signature"
	HeaderTimestamp = "X-Canal-Timestamp"
	HeaderSubset    = "X-Canal-Subset" // set by the gateway toward upstreams
	// HeaderRetry marks a request as a retry; the admission layer charges
	// it against the tenant's retry budget.
	HeaderRetry = "X-Canal-Retry"
	// HeaderTrace carries the request's trace ID on gateway-generated error
	// responses, so shed (429) and failed (5xx) requests are debuggable by
	// joining the ID against the access log and the trace store.
	HeaderTrace = "X-Canal-Trace"
)

// liveAccessLogCap bounds the live gateway's in-memory access log; the
// simulated experiments keep their logs unbounded, but a long-lived HTTP
// process must not grow without limit under load.
const liveAccessLogCap = 65536

// mirrorTimeout bounds each mirrored shadow request.
const mirrorTimeout = 5 * time.Second

// mirrorBodyLimit is the largest request body the gateway buffers for
// mirroring; larger bodies are mirrored without a body rather than stalling
// (or truncating) the primary request path.
const mirrorBodyLimit = 1 << 20

// authSkew is the accepted clock skew for signed requests.
const authSkew = 2 * time.Minute

// GatewayServer is the real-TCP centralized mesh gateway: one process
// serving many tenants, routing on the shared L7 engine and reverse-proxying
// to registered upstream pools.
type GatewayServer struct {
	mu        sync.RWMutex
	engine    *l7.Engine
	cas       map[string]*CA                   // tenant -> trust domain
	upstreams map[string]map[string][]*url.URL // engine service key -> subset -> URLs
	rr        map[string]int                   // round-robin cursors
	start     time.Time
	log       *telemetry.AccessLog
	admit     *admission.HTTPController
	tracer    *trace.Tracer
	// mirrorClient sends shadow traffic with its own bounded deadline, so a
	// slow mirror subset can never pile up goroutines indefinitely.
	mirrorClient *http.Client
	mirrorFail   telemetry.Counter
	// RequireAuth demands a valid identity signature on every request.
	RequireAuth bool
}

// NewGatewayServer returns an empty gateway.
func NewGatewayServer(seed int64) *GatewayServer {
	log := &telemetry.AccessLog{}
	log.SetCapacity(liveAccessLogCap)
	return &GatewayServer{
		engine:       l7.NewEngine(seed),
		cas:          make(map[string]*CA),
		upstreams:    make(map[string]map[string][]*url.URL),
		rr:           make(map[string]int),
		start:        time.Now(), //canal:allow simdeterminism real HTTP server epoch; virtual time is offsets from this start
		log:          log,
		tracer:       trace.NewLive(),
		mirrorClient: &http.Client{Timeout: mirrorTimeout},
	}
}

// Tracer exposes the gateway's live tracer (head-sampled and tail-kept
// traces of the real data path).
func (g *GatewayServer) Tracer() *trace.Tracer { return g.tracer }

// MirrorFailures returns how many mirrored shadow requests failed (build,
// transport, or timeout errors).
func (g *GatewayServer) MirrorFailures() float64 { return g.mirrorFail.Value() }

// AccessLog exposes the gateway's L7 access log.
func (g *GatewayServer) AccessLog() *telemetry.AccessLog { return g.log }

// EnableAdmission turns on proactive overload control for the real data
// path: a gateway-wide adaptive concurrency limit, per-tenant fair-share
// caps inside it, and per-tenant retry budgets. Shed requests get fast typed
// 429s with a Retry-After hint instead of queueing behind an overloaded
// proxy.
func (g *GatewayServer) EnableAdmission(cfg admission.Config) {
	g.mu.Lock()
	g.admit = admission.NewHTTPController(cfg)
	g.mu.Unlock()
}

// AdmissionMetrics returns the admission layer's metrics, or nil when
// disabled.
func (g *GatewayServer) AdmissionMetrics() *admission.Metrics {
	g.mu.RLock()
	defer g.mu.RUnlock()
	if g.admit == nil {
		return nil
	}
	return g.admit.Metrics()
}

// RegisterTenant installs a tenant's trust domain.
func (g *GatewayServer) RegisterTenant(tenant string, ca *CA) {
	g.mu.Lock()
	g.cas[tenant] = ca
	g.mu.Unlock()
}

// serviceKey namespaces a service name by tenant inside the shared engine,
// the real-mode analogue of the vSwitch's globally unique service IDs.
func serviceKey(tenant, service string) string { return tenant + "/" + service }

// ConfigureService installs a tenant service's routing configuration and its
// upstream pools (subset name -> backend URLs).
func (g *GatewayServer) ConfigureService(tenant string, cfg ServiceConfig, pools map[string][]string) error {
	key := serviceKey(tenant, cfg.Service)
	cfg.Service = key
	// Header matches are keyed the way flattenHeaders keys a request's
	// headers, so a rule on "x-user-group" matches X-User-Group. The
	// caller's slices are copied, not mutated.
	cfg.Rules = slices.Clone(cfg.Rules)
	for i := range cfg.Rules {
		hs := slices.Clone(cfg.Rules[i].Match.Headers)
		for j := range hs {
			hs[j].Name = http.CanonicalHeaderKey(hs[j].Name)
		}
		cfg.Rules[i].Match.Headers = hs
	}
	if err := g.engine.Configure(cfg); err != nil {
		return err
	}
	parsed := make(map[string][]*url.URL, len(pools))
	for subset, addrs := range pools {
		for _, a := range addrs {
			u, err := url.Parse(a)
			if err != nil {
				return fmt.Errorf("canal: upstream %q: %w", a, err)
			}
			parsed[subset] = append(parsed[subset], u)
		}
	}
	g.mu.Lock()
	g.upstreams[key] = parsed
	g.mu.Unlock()
	return nil
}

// SetServiceRate applies (or updates) an emergency throttle on a tenant
// service — the gateway-side rapid intervention of §6.2.
func (g *GatewayServer) SetServiceRate(tenant, service string, rps, burst float64) error {
	return g.engine.SetServiceRate(serviceKey(tenant, service), rps, burst)
}

// ClearServiceRate removes a throttle.
func (g *GatewayServer) ClearServiceRate(tenant, service string) {
	g.engine.ClearServiceRate(serviceKey(tenant, service))
}

// signingPayload is the byte string a NodeAgent signs per request.
func signingPayload(tenant, source, method, path, timestamp string) []byte {
	h := sha256.Sum256([]byte(tenant + "\x00" + source + "\x00" + method + "\x00" + path + "\x00" + timestamp))
	return h[:]
}

// authenticate verifies the request's identity signature against the
// tenant's CA and returns the verified source identity.
func (g *GatewayServer) authenticate(r *http.Request, tenant string) (string, error) {
	g.mu.RLock()
	ca := g.cas[tenant]
	g.mu.RUnlock()
	if ca == nil {
		return "", fmt.Errorf("unknown tenant %q", tenant)
	}
	certB64 := r.Header.Get(HeaderCert)
	sigB64 := r.Header.Get(HeaderSignature)
	ts := r.Header.Get(HeaderTimestamp)
	if certB64 == "" || sigB64 == "" || ts == "" {
		return "", fmt.Errorf("missing identity headers")
	}
	certDER, err := base64.StdEncoding.DecodeString(certB64)
	if err != nil {
		return "", fmt.Errorf("bad cert encoding: %w", err)
	}
	sig, err := base64.StdEncoding.DecodeString(sigB64)
	if err != nil {
		return "", fmt.Errorf("bad signature encoding: %w", err)
	}
	tsn, err := strconv.ParseInt(ts, 10, 64)
	if err != nil {
		return "", fmt.Errorf("bad timestamp: %w", err)
	}
	if d := time.Since(time.Unix(tsn, 0)); d > authSkew || d < -authSkew { //canal:allow simdeterminism auth skew check needs the real clock
		return "", fmt.Errorf("request timestamp outside accepted skew")
	}
	id, pub, err := ca.VerifyPeer(certDER)
	if err != nil {
		return "", err
	}
	payload := signingPayload(tenant, id, r.Method, r.URL.Path, ts)
	if !ecdsa.VerifyASN1(pub, payload, sig) {
		return "", fmt.Errorf("signature verification failed")
	}
	return id, nil
}

// startTrace joins the request's propagated W3C trace context when a valid
// traceparent header is present, or starts a fresh trace otherwise. The
// trace is keyed by the requesting tenant: the collector is shared across
// every tenant behind this gateway, and the span name carries request data
// (method + path), so an unkeyed trace would leak one tenant's paths into
// another tenant's exports.
func (g *GatewayServer) startTrace(r *http.Request) *trace.Trace {
	if g.tracer == nil {
		return nil
	}
	tenant := r.Header.Get(HeaderTenant)
	name := r.Method + " " + r.URL.Path
	if id, parent, sampled, err := trace.ParseTraceparent(r.Header.Get(trace.TraceparentHeader)); err == nil {
		return g.tracer.StartRemoteTenant(id, parent, sampled, "gateway", tenant, name)
	}
	return g.tracer.StartTenant("gateway", tenant, name)
}

// fail writes a local error response, stamping the trace ID header on it so
// the caller can join the rejection to its trace, and logs the request. It
// returns the status for the caller's trace bookkeeping.
//
//canal:boundary w is the requesting tenant's own ResponseWriter and the access log entry is keyed by the tenant argument
func (g *GatewayServer) fail(w http.ResponseWriter, r *http.Request, tr *trace.Trace,
	tenant, service, source string, status int, msg string, started time.Time) int {
	if tr != nil {
		w.Header().Set(HeaderTrace, tr.ID.String())
	}
	g.logReq(r, tenant, service, source, status, started, traceIDString(tr))
	http.Error(w, msg, status)
	return status
}

// traceIDString returns the trace's hex ID, or "" for an untraced request.
func traceIDString(tr *trace.Trace) string {
	if tr == nil {
		return ""
	}
	return tr.ID.String()
}

// ServeHTTP implements the multi-tenant gateway data path: extract or start
// the trace, authenticate, route, pick an upstream from the chosen subset,
// and reverse-proxy, propagating the trace context upstream.
func (g *GatewayServer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	started := time.Now() //canal:allow simdeterminism real request latency measurement on the live HTTP path
	tr := g.startTrace(r)
	status := http.StatusOK
	defer func() {
		if g.tracer != nil && tr != nil {
			g.tracer.Finish(tr, status)
		}
	}()
	tenant := r.Header.Get(HeaderTenant)
	service := r.Header.Get(HeaderService)
	if tenant == "" || service == "" {
		status = g.fail(w, r, tr, tenant, service, "", http.StatusBadRequest, "canal: missing tenant/service headers", started)
		return
	}
	source := r.Header.Get(HeaderSource)
	if g.RequireAuth {
		id, err := g.authenticate(r, tenant)
		if err != nil {
			status = g.fail(w, r, tr, tenant, service, source, http.StatusForbidden, "canal: "+err.Error(), started)
			return
		}
		// The verified identity overrides whatever the client claimed.
		source = shortID(id)
	}

	g.mu.RLock()
	admit := g.admit
	g.mu.RUnlock()
	proxied := false
	if admit != nil {
		release, rej := admit.Admit(tenant, service, r.Header.Get(HeaderRetry) != "")
		if rej != nil {
			w.Header().Set("Retry-After", strconv.FormatFloat(rej.RetryAfter.Seconds(), 'f', -1, 64))
			status = g.fail(w, r, tr, tenant, service, source, http.StatusTooManyRequests, "canal: "+rej.Error(), started)
			return
		}
		defer func() { release(proxied) }()
	}

	req := &Request{
		Tenant:        tenant,
		Service:       serviceKey(tenant, service),
		SourceService: source,
		SourcePod:     r.Header.Get(HeaderSourcePod),
		Method:        r.Method,
		Path:          r.URL.Path,
		Headers:       flattenHeaders(r.Header),
		Cookies:       flattenCookies(r),
		BodyBytes:     int(r.ContentLength),
		TLS:           r.TLS != nil,
	}
	decision, err := g.engine.Route(time.Since(g.start), req) //canal:allow simdeterminism live gateway clock feeds rate limiters with real elapsed time
	if err != nil {
		code := http.StatusServiceUnavailable
		if de, ok := err.(*l7.DecisionError); ok {
			code = de.Status
		}
		status = g.fail(w, r, tr, tenant, service, source, code, "canal: "+err.Error(), started)
		return
	}

	if decision.Delay > 0 {
		// Fault injection: hold the request before proxying.
		time.Sleep(decision.Delay) //canal:allow simdeterminism fault injection must really delay live requests
	}
	if decision.Timeout > 0 {
		ctx, cancel := context.WithTimeout(r.Context(), decision.Timeout)
		defer cancel()
		r = r.WithContext(ctx)
	}

	target, err := g.pickUpstream(req.Service, decision.Subset)
	if err != nil {
		status = g.fail(w, r, tr, tenant, service, source, http.StatusServiceUnavailable, "canal: "+err.Error(), started)
		return
	}
	if decision.MirrorTo != "" {
		if mirror, err := g.pickUpstream(req.Service, decision.MirrorTo); err == nil {
			g.spawnMirror(r, mirror, decision)
		}
	}

	proxy := &httputil.ReverseProxy{
		Director: func(out *http.Request) {
			out.URL.Scheme = target.Scheme
			out.URL.Host = target.Host
			if decision.PathRewrite != "" {
				out.URL.Path = decision.PathRewrite
			}
			for k, v := range decision.SetHeaders {
				out.Header.Set(k, v)
			}
			for _, k := range decision.RemoveHeaders {
				out.Header.Del(k)
			}
			out.Header.Set(HeaderSubset, decision.Subset)
			if tr != nil {
				// Propagate the trace context upstream: the gateway's root
				// span becomes the upstream's parent.
				out.Header.Set(trace.TraceparentHeader, trace.Traceparent(tr.ID, tr.Root().ID, tr.Sampled))
			}
		},
		ModifyResponse: func(resp *http.Response) error {
			// Record the upstream's real status so the trace, the access
			// log, and tail retention ("errored traces are always kept")
			// see 4xx/5xx exchanges as errors, and stamp the trace ID on
			// upstream error responses so callers can join them.
			status = resp.StatusCode
			if resp.StatusCode >= 400 && tr != nil {
				resp.Header.Set(HeaderTrace, tr.ID.String())
			}
			return nil
		},
		ErrorHandler: func(w http.ResponseWriter, _ *http.Request, err error) {
			proxied = false
			status = g.fail(w, r, tr, tenant, service, source, http.StatusBadGateway, "canal: upstream: "+err.Error(), started)
		},
	}
	proxied = true
	var upstreamStart time.Duration
	if g.tracer != nil {
		upstreamStart = g.tracer.Now()
	}
	proxy.ServeHTTP(w, r)
	if g.tracer != nil && tr != nil {
		// One hop span around the upstream exchange separates gateway
		// overhead from upstream service time in the trace.
		tr.AddHop(trace.Hop{Name: "gateway/upstream", Start: upstreamStart, End: g.tracer.Now()})
	}
	if proxied {
		g.logReq(r, tenant, service, source, status, started, traceIDString(tr))
	}
}

// pickUpstream round-robins within a subset pool.
func (g *GatewayServer) pickUpstream(key, subset string) (*url.URL, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	pool := g.upstreams[key][subset]
	if len(pool) == 0 {
		return nil, fmt.Errorf("no upstreams for %s subset %q", key, subset)
	}
	cursor := key + "|" + subset
	u := pool[g.rr[cursor]%len(pool)]
	g.rr[cursor]++
	return u, nil
}

// spawnMirror prepares a copy of the request for the shadow subset and sends
// it on a background goroutine. The body is buffered up to mirrorBodyLimit so
// the mirror carries the same payload as the primary; oversized bodies are
// mirrored without a body rather than stalling the primary path. The primary
// request's body is restored before this returns, so the reverse proxy still
// streams it intact.
func (g *GatewayServer) spawnMirror(r *http.Request, target *url.URL, decision l7.Decision) {
	var body []byte
	if r.Body != nil && r.Body != http.NoBody {
		buffered, err := io.ReadAll(io.LimitReader(r.Body, mirrorBodyLimit+1))
		if err != nil {
			g.mirrorFail.Inc()
			r.Body = io.NopCloser(io.MultiReader(bytes.NewReader(buffered), errReader{err}))
			return
		}
		if len(buffered) > mirrorBodyLimit {
			// Too big to hold: give the primary back everything read so far
			// plus the unread remainder, and mirror headers only.
			rest := r.Body
			r.Body = io.NopCloser(io.MultiReader(bytes.NewReader(buffered), rest))
		} else {
			r.Body = io.NopCloser(bytes.NewReader(buffered))
			body = buffered
		}
	}
	headers := r.Header.Clone()
	go g.mirror(r.Method, r.URL.Path, headers, body, target, decision)
}

// errReader replays a body read error to the primary request after the
// mirror's buffering attempt failed partway.
type errReader struct{ err error }

func (e errReader) Read([]byte) (int, error) { return 0, e.err }

// mirror sends a copy of the request to the shadow subset with the dedicated
// mirror client (its own timeout), discarding the response body. Failures are
// counted, never surfaced to the primary request.
func (g *GatewayServer) mirror(method, path string, headers http.Header, body []byte, target *url.URL, decision l7.Decision) {
	if decision.PathRewrite != "" {
		path = decision.PathRewrite
	}
	var rd io.Reader
	if len(body) > 0 {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, target.Scheme+"://"+target.Host+path, rd)
	if err != nil {
		g.mirrorFail.Inc()
		return
	}
	for k, v := range headers {
		req.Header[k] = v
	}
	req.Header.Set(HeaderSubset, decision.MirrorTo)
	resp, err := g.mirrorClient.Do(req)
	if err != nil {
		g.mirrorFail.Inc()
		return
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
}

func (g *GatewayServer) logReq(r *http.Request, tenant, service, source string, status int, started time.Time, traceID string) {
	g.log.Log(telemetry.AccessEntry{
		At:      time.Since(g.start), //canal:allow simdeterminism access-log timestamps on the live path are wall-clock offsets
		Layer:   telemetry.AccessL7,
		Where:   "gateway",
		Tenant:  tenant,
		Service: service,
		SrcPod:  source,
		Method:  r.Method,
		Path:    r.URL.Path,
		Status:  status,
		Latency: time.Since(started), //canal:allow simdeterminism real request latency on the live path
		TraceID: traceID,
	})
}

// flattenHeaders keys each header's first value by its canonical name, the
// form ConfigureService rewrites header-match names into.
func flattenHeaders(h http.Header) map[string]string {
	out := make(map[string]string, len(h))
	for k, v := range h {
		if len(v) > 0 {
			out[http.CanonicalHeaderKey(k)] = v[0]
		}
	}
	return out
}

func flattenCookies(r *http.Request) map[string]string {
	cookies := r.Cookies()
	out := make(map[string]string, len(cookies))
	for _, c := range cookies {
		out[c.Name] = c.Value
	}
	return out
}

// NodeAgent is the real-mode on-node proxy: it forwards workload requests to
// the gateway, attaching the workload's mesh identity and a per-request
// signature (encryption and authentication stay on the user node, §4.1.1).
type NodeAgent struct {
	Tenant   string
	Identity *Identity
	Gateway  string // gateway base URL
	Client   *http.Client
	// Tracer originates the workload-side trace context propagated to the
	// gateway via traceparent. Nil disables client-side tracing.
	Tracer *trace.Tracer
}

// NewNodeAgent returns an agent fronting one workload identity.
func NewNodeAgent(tenant string, id *Identity, gatewayURL string) *NodeAgent {
	return &NodeAgent{Tenant: tenant, Identity: id, Gateway: gatewayURL, Client: http.DefaultClient, Tracer: trace.NewLive()}
}

// shortID extracts the service name from a SPIFFE-style identity for the
// source-service header (last path element).
func shortID(id string) string {
	for i := len(id) - 1; i >= 0; i-- {
		if id[i] == '/' {
			return id[i+1:]
		}
	}
	return id
}

// Do sends one request through the mesh to a destination service. When the
// agent has a Tracer and the caller did not supply its own traceparent, the
// agent originates the trace context the gateway joins.
func (a *NodeAgent) Do(method, service, path string, body io.Reader, headers map[string]string) (*http.Response, error) {
	req, err := http.NewRequest(method, a.Gateway+path, body)
	if err != nil {
		return nil, err
	}
	for k, v := range headers {
		req.Header.Set(k, v)
	}
	req.Header.Set(HeaderTenant, a.Tenant)
	req.Header.Set(HeaderService, service)
	req.Header.Set(HeaderSource, shortID(a.Identity.ID))
	ts := strconv.FormatInt(time.Now().Unix(), 10) //canal:allow simdeterminism signed auth timestamps must be real time for skew checks
	req.Header.Set(HeaderTimestamp, ts)
	req.Header.Set(HeaderCert, base64.StdEncoding.EncodeToString(a.Identity.CertDER))
	payload := signingPayload(a.Tenant, a.Identity.ID, method, path, ts)
	sig, err := signASN1(a.Identity, payload)
	if err != nil {
		return nil, err
	}
	req.Header.Set(HeaderSignature, base64.StdEncoding.EncodeToString(sig))
	var tr *trace.Trace
	if a.Tracer != nil && req.Header.Get(trace.TraceparentHeader) == "" {
		tr = a.Tracer.StartTenant("node-agent", a.Tenant, method+" "+path)
		req.Header.Set(trace.TraceparentHeader, trace.Traceparent(tr.ID, tr.Root().ID, tr.Sampled))
	}
	resp, err := a.Client.Do(req)
	if tr != nil {
		status := http.StatusBadGateway
		if err == nil {
			status = resp.StatusCode
		}
		a.Tracer.Finish(tr, status)
	}
	return resp, err
}

// Get is a convenience wrapper over Do.
func (a *NodeAgent) Get(service, path string) (*http.Response, error) {
	return a.Do(http.MethodGet, service, path, nil, nil)
}

func signASN1(id *Identity, digest []byte) ([]byte, error) {
	return ecdsa.SignASN1(rand.Reader, id.Key, digest)
}

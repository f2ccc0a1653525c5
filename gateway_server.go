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
	"maps"
	"net/http"
	"net/http/httputil"
	"net/url"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
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

// traceparentKey is trace.TraceparentHeader in the canonical form http.Header
// is keyed by, so the request path indexes the map with it directly:
// Header.Get and Header.Set would canonicalise the lower-case name, with an
// allocation, on every request.
var traceparentKey = http.CanonicalHeaderKey(trace.TraceparentHeader)

// GatewayServer is the real-TCP centralized mesh gateway: one process
// serving many tenants, routing on the shared L7 engine and reverse-proxying
// to registered upstream pools.
type GatewayServer struct {
	engine *l7.Engine
	// config is everything configured that a request reads, published whole:
	// ServeHTTP loads it once and decides against that. RegisterTenant,
	// EnableAdmission and ConfigureService hold writeMu, copy what they
	// change and store the copy; nothing published is written again.
	config  atomic.Pointer[gatewayConfig]
	writeMu sync.Mutex
	start   time.Time
	log     *telemetry.AccessLog
	tracer  *trace.Tracer
	// proxy forwards every request of every tenant. Its hooks find the
	// request they are called for in the request context (stateOf).
	proxy  httputil.ReverseProxy
	states sync.Pool // *requestState
	// mirrorClient sends shadow traffic with its own bounded deadline, so a
	// slow mirror subset can never pile up goroutines indefinitely.
	mirrorClient *http.Client
	mirrorFail   telemetry.Counter
	// RequireAuth demands a valid identity signature on every request.
	RequireAuth bool
}

// gatewayConfig is one published configuration of the gateway.
type gatewayConfig struct {
	admit   *admission.HTTPController // nil while admission is off
	tenants map[string]tenantConfig
}

// tenantConfig is what the gateway knows of one tenant. A name it has never
// been given resolves to the zero value: no CA, no services.
type tenantConfig struct {
	ca       *CA // trust domain; nil until RegisterTenant
	services map[string]*serviceUpstreams
}

// serviceUpstreams is what the gateway resolves a tenant's service to, once
// per request: the name the shared engine knows the service by, the engine's
// handle on its compiled configuration and its upstream pools. It is
// immutable once published, but for the pools' cursors.
type serviceUpstreams struct {
	key   string // serviceKey(tenant, service), built once
	route *l7.Service
	pools map[string]upstreamPool
}

// upstreamPool is one subset's backends and its round-robin cursor. The
// cursor is shared with the pool that replaces this one when the service is
// reconfigured, so the rotation carries on where it was.
type upstreamPool struct {
	urls []*url.URL
	next *atomic.Uint32
}

// pick round-robins within a subset's pool without taking a lock.
func (s *serviceUpstreams) pick(subset string) (*url.URL, error) {
	pool := s.pools[subset]
	if len(pool.urls) == 0 {
		return nil, fmt.Errorf("no upstreams for %s subset %q", s.key, subset)
	}
	return pool.urls[(pool.next.Add(1)-1)%uint32(len(pool.urls))], nil
}

// copyBufferSize is the size of the buffer httputil.ReverseProxy copies a
// response body through (what it allocates per response when it has no
// BufferPool).
const copyBufferSize = 32 << 10

// copyBuffers recycles those buffers. It pools array pointers and converts
// to and from the slice ReverseProxy wants, so that Put boxes a pointer and
// does not allocate a slice header.
type copyBuffers struct{ pool sync.Pool }

func (b *copyBuffers) Get() []byte {
	if buf, ok := b.pool.Get().(*[copyBufferSize]byte); ok {
		return buf[:]
	}
	return make([]byte, copyBufferSize)
}

// Put takes the buffer back as it is. One tenant's reply bytes stay in it,
// but cannot reach another's: ReverseProxy's copy loop only ever writes
// buf[:n] straight after a Read that filled exactly those n bytes.
func (b *copyBuffers) Put(buf []byte) { b.pool.Put((*[copyBufferSize]byte)(buf)) }

// NewGatewayServer returns an empty gateway.
func NewGatewayServer(seed int64) *GatewayServer {
	log := &telemetry.AccessLog{}
	log.SetCapacity(liveAccessLogCap)
	g := &GatewayServer{
		engine:       l7.NewEngine(seed),
		start:        time.Now(), //canal:allow simdeterminism real HTTP server epoch; virtual time is offsets from this start
		log:          log,
		tracer:       trace.NewLive(),
		mirrorClient: &http.Client{Timeout: mirrorTimeout},
	}
	// Director, not Rewrite: Rewrite strips the client's X-Forwarded-* and
	// leaves adding them to the hook, which would change what upstreams
	// receive behind an earlier proxy.
	g.proxy = httputil.ReverseProxy{
		Director:       g.directUpstream,
		ModifyResponse: g.recordUpstreamStatus,
		ErrorHandler:   g.upstreamFailed,
		BufferPool:     &copyBuffers{},
	}
	g.config.Store(&gatewayConfig{tenants: make(map[string]tenantConfig)})
	g.states.New = func() any {
		return &requestState{req: Request{Headers: make(map[string]string), Cookies: make(map[string]string)}}
	}
	return g
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
	g.writeMu.Lock()
	defer g.writeMu.Unlock()
	next := *g.config.Load()
	next.admit = admission.NewHTTPController(cfg)
	g.config.Store(&next)
}

// AdmissionMetrics returns the admission layer's metrics, or nil when
// disabled.
func (g *GatewayServer) AdmissionMetrics() *admission.Metrics {
	admit := g.config.Load().admit
	if admit == nil {
		return nil
	}
	return admit.Metrics()
}

// RegisterTenant installs a tenant's trust domain.
func (g *GatewayServer) RegisterTenant(tenant string, ca *CA) {
	g.writeMu.Lock()
	defer g.writeMu.Unlock()
	next := *g.config.Load()
	next.tenants = maps.Clone(next.tenants)
	next.tenants[tenant] = tenantConfig{ca: ca, services: next.tenants[tenant].services}
	g.config.Store(&next)
}

// serviceKey namespaces a service name by tenant inside the shared engine,
// the real-mode analogue of the vSwitch's globally unique service IDs.
func serviceKey(tenant, service string) string { return tenant + "/" + service }

// ConfigureService installs a tenant service's routing configuration and its
// upstream pools (subset name -> backend URLs). A call that fails changes
// nothing.
func (g *GatewayServer) ConfigureService(tenant string, cfg ServiceConfig, pools map[string][]string) error {
	// Held from the engine's Configure to the publication of its handle, so
	// two calls for one service cannot publish them in the other order.
	g.writeMu.Lock()
	defer g.writeMu.Unlock()
	service := cfg.Service
	prev := g.config.Load().tenants[tenant].services[service]
	// The addresses are parsed before the engine is touched: once
	// engine.Configure has replaced the service's rules and intentions there
	// is no undoing it for a bad address found afterwards.
	up := &serviceUpstreams{key: serviceKey(tenant, service), pools: make(map[string]upstreamPool, len(pools))}
	for _, subset := range slices.Sorted(maps.Keys(pools)) {
		urls := make([]*url.URL, 0, len(pools[subset]))
		for _, a := range pools[subset] {
			u, err := url.Parse(a)
			if err != nil {
				return fmt.Errorf("canal: upstream %q: %w", a, err)
			}
			urls = append(urls, u)
		}
		var next *atomic.Uint32
		if prev != nil {
			next = prev.pools[subset].next
		}
		if next == nil {
			next = new(atomic.Uint32)
		}
		up.pools[subset] = upstreamPool{urls: urls, next: next}
	}
	cfg.Service = up.key
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
	up.route = g.engine.Service(up.key)
	// Two maps are copied, the tenant index and this tenant's services, and
	// no other tenant's: a call costs what its own tenant has configured.
	next := *g.config.Load()
	next.tenants = maps.Clone(next.tenants)
	t := next.tenants[tenant]
	services := make(map[string]*serviceUpstreams, len(t.services)+1)
	maps.Copy(services, t.services)
	services[service] = up
	next.tenants[tenant] = tenantConfig{ca: t.ca, services: services}
	g.config.Store(&next)
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

// signingPayload is the byte string a NodeAgent signs per request: who sends
// it to which service of which tenant, and the request target as sent (path
// and query), so a captured signature is good for that one request line only.
func signingPayload(tenant, service, source, method, target, timestamp string) []byte {
	h := sha256.Sum256([]byte(tenant + "\x00" + service + "\x00" + source + "\x00" + method + "\x00" + target + "\x00" + timestamp))
	return h[:]
}

// authenticate verifies the request's identity signature against the
// tenant's CA (nil when the tenant was never registered) and returns the
// verified source identity.
func authenticate(r *http.Request, tenant, service string, ca *CA) (string, error) {
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
	payload := signingPayload(tenant, service, id, r.Method, r.RequestURI, ts)
	if !ecdsa.VerifyASN1(pub, payload, sig) {
		return "", fmt.Errorf("signature verification failed")
	}
	return id, nil
}

// requestState is what the gateway holds about one request while ServeHTTP
// runs. It is recycled through GatewayServer.states, so the next request to
// use it may be another tenant's: nothing that outlives ServeHTTP — the
// mirror goroutine, a kept trace, an access-log entry — may point into it,
// and recycle clears all of it.
type requestState struct {
	req     Request // Headers and Cookies are this state's own maps, kept across uses
	service string  // the tenant's name for the service; req.Service is the engine's
	started time.Time
	tr      *trace.Trace
	status  int
	// admitted is the admission slot's release; nil when admission is off
	// or the request never got one.
	admitted func(ok bool)
	decision l7.Decision
	target   *url.URL
	// upstreamStart is the start of the gateway/upstream hop on the tracer's
	// clock.
	upstreamStart time.Duration
	// inProxy is set across the call into the shared ReverseProxy. Still set
	// when ServeHTTP unwinds, it means the proxy did not return.
	inProxy bool
	// proxied is the outcome the admission layer hears: the upstream
	// answered, whatever its status.
	proxied bool
}

// stateKey is the context key a request's state travels under, from
// ServeHTTP to the shared proxy's hooks.
type stateKey struct{}

func stateOf(r *http.Request) *requestState {
	return r.Context().Value(stateKey{}).(*requestState)
}

// maxKeptMapLen is the most entries a state's header or cookie map may have
// held and still be kept. A Go map never shrinks and clear re-zeroes all of
// its buckets, so a map that one request with thousands of headers grew
// would tax every later request that drew its state.
const maxKeptMapLen = 64

// recycle returns st to the pool with nothing of its request left in it:
// every field zeroed, and the two maps emptied and kept.
func (g *GatewayServer) recycle(st *requestState) {
	headers, cookies := emptied(st.req.Headers), emptied(st.req.Cookies)
	*st = requestState{}
	st.req.Headers, st.req.Cookies = headers, cookies
	g.states.Put(st)
}

// emptied returns m cleared, or a fresh map in place of one grown past
// maxKeptMapLen.
func emptied(m map[string]string) map[string]string {
	if len(m) > maxKeptMapLen {
		return make(map[string]string)
	}
	clear(m)
	return m
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
	if tp := r.Header[traceparentKey]; len(tp) > 0 {
		if id, parent, sampled, err := trace.ParseTraceparent(tp[0]); err == nil {
			return g.tracer.StartRemoteTenant(id, parent, sampled, "gateway", tenant, name)
		}
	}
	return g.tracer.StartTenant("gateway", tenant, name)
}

// fail writes a local error response, stamping the trace ID header on it so
// the caller can join the rejection to its trace, and logs the request.
//
//canal:boundary w is the requesting tenant's own ResponseWriter and the access log entry is keyed by the tenant in st
func (g *GatewayServer) fail(w http.ResponseWriter, st *requestState, status int, msg string) {
	st.status = status
	if st.tr != nil {
		w.Header().Set(HeaderTrace, st.tr.ID.String())
	}
	g.logReq(st)
	http.Error(w, msg, status)
}

// ServeHTTP implements the multi-tenant gateway data path: extract or start
// the trace, authenticate, route, pick an upstream from the chosen subset,
// and reverse-proxy, propagating the trace context upstream.
func (g *GatewayServer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	st := g.states.Get().(*requestState)
	st.started = time.Now() //canal:allow simdeterminism real request latency measurement on the live HTTP path
	st.tr = g.startTrace(r)
	st.status = http.StatusOK
	defer g.finish(st)
	req := &st.req
	req.Method, req.Path = r.Method, r.URL.Path
	req.Tenant, st.service = r.Header.Get(HeaderTenant), r.Header.Get(HeaderService)
	if req.Tenant == "" || st.service == "" {
		g.fail(w, st, http.StatusBadRequest, "canal: missing tenant/service headers")
		return
	}
	req.SourceService = r.Header.Get(HeaderSource)
	// The one load of the published configuration, and the one lookup of the
	// tenant in it: everything below decides against these.
	config := g.config.Load()
	tenant := config.tenants[req.Tenant]
	if g.RequireAuth {
		id, err := authenticate(r, req.Tenant, st.service, tenant.ca)
		if err != nil {
			g.fail(w, st, http.StatusForbidden, "canal: "+err.Error())
			return
		}
		// The verified identity overrides whatever the client claimed.
		req.SourceService = shortID(id)
	}

	up := tenant.services[st.service]
	if up == nil {
		// Never configured: the nil handle refuses it, as the engine would,
		// by the name it would have. The refusal comes before admission, so
		// an unknown name leaves no admission state behind and gets its 503
		// whatever the load.
		req.Service = serviceKey(req.Tenant, st.service)
		_, err := (*l7.Service)(nil).Route(0, req)
		g.fail(w, st, l7.StatusOf(err), "canal: "+err.Error())
		return
	}
	req.Service = up.key

	if config.admit != nil {
		release, rej := config.admit.Admit(req.Tenant, st.service, r.Header.Get(HeaderRetry) != "")
		if rej != nil {
			w.Header().Set("Retry-After", strconv.FormatFloat(rej.RetryAfter.Seconds(), 'f', -1, 64))
			g.fail(w, st, http.StatusTooManyRequests, "canal: "+rej.Error())
			return
		}
		st.admitted = release
	}

	req.SourcePod = r.Header.Get(HeaderSourcePod)
	flattenHeaders(req.Headers, r.Header)
	flattenCookies(req.Cookies, r)
	req.BodyBytes = int(r.ContentLength)
	req.TLS = r.TLS != nil
	var err error
	st.decision, err = up.route.Route(time.Since(g.start), req) //canal:allow simdeterminism live gateway clock feeds rate limiters with real elapsed time
	if err != nil {
		g.fail(w, st, l7.StatusOf(err), "canal: "+err.Error())
		return
	}

	if st.decision.Delay > 0 {
		// Fault injection: hold the request before proxying.
		time.Sleep(st.decision.Delay) //canal:allow simdeterminism fault injection must really delay live requests
	}
	ctx := r.Context()
	if st.decision.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, st.decision.Timeout)
		defer cancel()
	}

	st.target, err = up.pick(st.decision.Subset)
	if err != nil {
		g.fail(w, st, http.StatusServiceUnavailable, "canal: "+err.Error())
		return
	}
	if st.decision.MirrorTo != "" {
		if mirror, err := up.pick(st.decision.MirrorTo); err == nil {
			g.spawnMirror(r, mirror, st.decision)
		}
	}

	r = r.WithContext(context.WithValue(ctx, stateKey{}, st))
	if st.tr != nil {
		st.upstreamStart = g.tracer.Now()
	}
	st.proxied, st.inProxy = true, true
	if r.ContentLength != 0 {
		// The HTTP/1 server otherwise consumes and closes the inbound body
		// when the reply header is written, while the outbound transport may
		// still be reading it: the upstream connection is torn down mid-reply
		// and the client gets a truncated body. An error means the writer has
		// no such switch — HTTP/2 is always full duplex, a test recorder has
		// no connection — and there is nothing to do.
		_ = http.NewResponseController(w).EnableFullDuplex()
	}
	g.proxy.ServeHTTP(w, r)
	st.inProxy = false
	g.exchanged(st)
}

// directUpstream is the shared proxy's Director: it points the outbound
// request at the upstream picked for it and applies the routing decision.
func (g *GatewayServer) directUpstream(out *http.Request) {
	st := stateOf(out)
	decision := &st.decision
	out.URL.Scheme = st.target.Scheme
	out.URL.Host = st.target.Host
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
	if st.tr != nil {
		// Propagate the trace context upstream: the gateway's root
		// span becomes the upstream's parent.
		out.Header[traceparentKey] = []string{trace.Traceparent(st.tr.ID, st.tr.Root().ID, st.tr.Sampled)}
	}
}

// recordUpstreamStatus is the shared proxy's ModifyResponse: it records the
// upstream's real status so the trace, the access log, and tail retention
// ("errored traces are always kept") see 4xx/5xx exchanges as errors, and
// stamps the trace ID on upstream error responses so callers can join them.
func (g *GatewayServer) recordUpstreamStatus(resp *http.Response) error {
	st := stateOf(resp.Request)
	st.status = resp.StatusCode
	if resp.StatusCode >= 400 && st.tr != nil {
		resp.Header.Set(HeaderTrace, st.tr.ID.String())
	}
	return nil
}

// upstreamFailed is the shared proxy's ErrorHandler: no upstream response
// arrived (refused, reset, timed out), so the caller gets a local 502. r is
// the inbound or the outbound request, depending on where the proxy failed;
// both carry the state.
func (g *GatewayServer) upstreamFailed(w http.ResponseWriter, r *http.Request, err error) {
	st := stateOf(r)
	st.proxied = false
	g.fail(w, st, http.StatusBadGateway, "canal: upstream: "+err.Error())
}

// exchanged closes the books on the call into the proxy: one hop span
// around the upstream exchange separates gateway overhead from upstream
// service time in the trace, and the request is logged unless upstreamFailed
// already did.
func (g *GatewayServer) exchanged(st *requestState) {
	if st.tr != nil {
		st.tr.AddHop(trace.Hop{Name: "gateway/upstream", Start: st.upstreamStart, End: g.tracer.Now()})
	}
	if st.proxied {
		g.logReq(st)
	}
}

// finish is ServeHTTP's deferred completion: it frees the admission slot,
// finishes the trace and recycles the state, on every way out.
func (g *GatewayServer) finish(st *requestState) {
	if st.inProxy {
		// The proxy panicked out with http.ErrAbortHandler: the upstream died
		// mid-body or the client hung up mid-reply. The panic is not
		// recovered — net/http has to tear the connection down — but the
		// exchange still gets its hop and its log line, as a failed one.
		st.status = http.StatusBadGateway
		g.exchanged(st)
		st.proxied = false
	}
	if st.admitted != nil {
		st.admitted(st.proxied)
	}
	if st.tr != nil {
		g.tracer.Finish(st.tr, st.status)
	}
	g.recycle(st)
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
	// The mirror's URL is the primary's as directUpstream builds it: escaped
	// path and query kept, only the upstream and any rewrite applied.
	u := *r.URL
	u.Scheme, u.Host = target.Scheme, target.Host
	if decision.PathRewrite != "" {
		u.Path = decision.PathRewrite
	}
	go g.mirror(r.Method, &u, headers, body, decision)
}

// errReader replays a body read error to the primary request after the
// mirror's buffering attempt failed partway.
type errReader struct{ err error }

func (e errReader) Read([]byte) (int, error) { return 0, e.err }

// mirror sends a copy of the request to the shadow subset with the dedicated
// mirror client (its own timeout), discarding the response body. Failures are
// counted, never surfaced to the primary request.
func (g *GatewayServer) mirror(method string, u *url.URL, headers http.Header, body []byte, decision l7.Decision) {
	var rd io.Reader
	if len(body) > 0 {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, "", rd)
	if err != nil {
		g.mirrorFail.Inc()
		return
	}
	req.URL = u
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

func (g *GatewayServer) logReq(st *requestState) {
	traceID := ""
	if st.tr != nil {
		traceID = st.tr.ID.String()
	}
	g.log.Log(telemetry.AccessEntry{
		At:      time.Since(g.start), //canal:allow simdeterminism access-log timestamps on the live path are wall-clock offsets
		Layer:   telemetry.AccessL7,
		Where:   "gateway",
		Tenant:  st.req.Tenant,
		Service: st.service,
		SrcPod:  st.req.SourceService,
		Method:  st.req.Method,
		Path:    st.req.Path,
		Status:  st.status,
		Latency: time.Since(st.started), //canal:allow simdeterminism real request latency on the live path
		TraceID: traceID,
	})
}

// flattenHeaders keys each header's first value by its canonical name, the
// form ConfigureService rewrites header-match names into.
func flattenHeaders(out map[string]string, h http.Header) {
	for k, v := range h {
		if len(v) > 0 {
			out[http.CanonicalHeaderKey(k)] = v[0]
		}
	}
}

func flattenCookies(out map[string]string, r *http.Request) {
	for _, c := range r.Cookies() {
		out[c.Name] = c.Value
	}
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
	payload := signingPayload(a.Tenant, service, a.Identity.ID, method, req.URL.RequestURI(), ts)
	sig, err := signASN1(a.Identity, payload)
	if err != nil {
		return nil, err
	}
	req.Header.Set(HeaderSignature, base64.StdEncoding.EncodeToString(sig))
	var tr *trace.Trace
	if a.Tracer != nil && req.Header.Get(traceparentKey) == "" {
		tr = a.Tracer.StartTenant("node-agent", a.Tenant, method+" "+path)
		req.Header.Set(traceparentKey, trace.Traceparent(tr.ID, tr.Root().ID, tr.Sampled))
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

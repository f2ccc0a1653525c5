package main

import (
	"bytes"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	canal "canalmesh"
	"canalmesh/internal/admission"
	"canalmesh/internal/trace"
)

// workers is the number of client connections and worker goroutines of
// every workload: one per core of the 2-core box the benchmark is sized for.
const workers = 2

// unsignedPool is the number of distinct generated requests an unsigned
// workload cycles through.
const unsignedPool = 1 << 16

// warmupRequests go through a fresh gateway before anything is timed, so
// connections are open and lazy set-up is done.
const warmupRequests = 200

// pattern is what request and reply bodies are cut from: the body of
// request id is pattern[id%251:][:n], so both ends can check every byte.
var pattern = func() []byte {
	p := make([]byte, postReply+251)
	for i := range p {
		p[i] = byte(i % 251)
	}
	return p
}()

func bodyFor(id uint64, n int) []byte { return pattern[id%251:][:n] }

// admissionConfig is the admission layer as the benchmark deploys it. The
// floor keeps the adaptive limit above the two requests in flight: left at
// the default of 1, a run of slow samples decays the limit until the second
// concurrent request is shed, and the workloads are meant to shed nothing.
var admissionConfig = admission.Config{Limiter: admission.LimiterConfig{MinLimit: 4}}

var traceparentKey = http.CanonicalHeaderKey(trace.TraceparentHeader)

// upstream is one backend pool member. It checks what the gateway forwarded
// against the request's expectation header and answers with the requested
// number of pattern bytes.
type upstream struct {
	subset     string
	srv        *httptest.Server
	received   atomic.Int64
	mismatches atomic.Int64
	firstBad   atomic.Pointer[string]
	rec        atomic.Pointer[spanRecorder] // set while a traced run is on
	bufs       sync.Pool
}

func newUpstream(subset string) *upstream {
	u := &upstream{subset: subset}
	u.bufs.New = func() any { b := make([]byte, postBody+1); return &b }
	u.srv = httptest.NewServer(u)
	return u
}

// requestID extracts the benchmark's request ID from a traceparent value:
// the low 8 bytes of the trace ID, which the gateway must propagate.
func requestID(traceparent string) (uint64, bool) {
	if len(traceparent) != 55 {
		return 0, false
	}
	id, err := strconv.ParseUint(traceparent[19:35], 16, 64)
	return id, err == nil
}

func (u *upstream) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	rec := u.rec.Load()
	var arrive int64
	if rec != nil {
		arrive = rec.now()
	}
	u.received.Add(1)
	id, replyLen, problem := u.check(r)
	if problem != "" {
		u.mismatches.Add(1)
		u.firstBad.CompareAndSwap(nil, &problem)
		http.Error(w, problem, http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(replyLen))
	// A failed write is a client that went away; the client side counts it.
	_, _ = w.Write(bodyFor(id, replyLen))
	if rec != nil {
		name := "upstream"
		if u.subset == subsetShadow {
			name = "mirror" // a copy of the request, beside its exchange with the upstream
		}
		rec.add(span{Req: id, Name: name, Parent: "client", Start: arrive, End: rec.now()})
	}
}

// check compares the forwarded request with its expectation header.
func (u *upstream) check(r *http.Request) (id uint64, replyLen int, problem string) {
	id, ok := requestID(r.Header.Get(trace.TraceparentHeader))
	if !ok {
		return 0, 0, "upstream: no usable traceparent"
	}
	exp := strings.Split(r.Header.Get(hdrExpect), "|")
	if len(exp) != 6 {
		return id, 0, "upstream: bad expectation header"
	}
	bodyLen, err1 := strconv.Atoi(exp[4])
	replyLen, err2 := strconv.Atoi(exp[5])
	if err1 != nil || err2 != nil || bodyLen > postBody || replyLen > postReply {
		return id, 0, "upstream: bad expectation sizes"
	}
	bufp := u.bufs.Get().(*[]byte)
	defer u.bufs.Put(bufp)
	n, err := io.ReadFull(r.Body, *bufp)
	if err != nil && err != io.EOF && err != io.ErrUnexpectedEOF {
		return id, 0, "upstream: reading body: " + err.Error()
	}
	if !bytes.Equal((*bufp)[:n], bodyFor(id, bodyLen)) {
		return id, 0, fmt.Sprintf("upstream: body of %d bytes differs from the %d sent", n, bodyLen)
	}
	if r.Header.Get(hdrDirect) != "" {
		return id, replyLen, "" // straight from the client: nothing was forwarded
	}
	got := r.Header.Get(canal.HeaderSubset)
	if got != u.subset {
		return id, 0, fmt.Sprintf("upstream %s: got subset header %q", u.subset, got)
	}
	if u.subset == subsetShadow {
		return id, replyLen, "" // a mirrored copy keeps the original path and headers
	}
	if !strings.Contains(","+exp[0]+",", ","+got+",") {
		return id, 0, fmt.Sprintf("upstream: subset %q not among %q", got, exp[0])
	}
	if r.URL.Path != exp[1] {
		return id, 0, fmt.Sprintf("upstream: path %q, want %q", r.URL.Path, exp[1])
	}
	if v := r.Header.Get(hdrSetBy); v != exp[2] {
		return id, 0, fmt.Sprintf("upstream: %s %q, want %q", hdrSetBy, v, exp[2])
	}
	if stripped := r.Header.Get(hdrStrip) == ""; stripped != (exp[3] == "1") {
		return id, 0, fmt.Sprintf("upstream: %s stripped=%v, want %s", hdrStrip, stripped, exp[3])
	}
	return id, replyLen, ""
}

// errCaptured is what the capturing transport returns in place of a
// response.
var errCaptured = errors.New("request captured, not sent")

// captureTransport keeps the headers of the request NodeAgent.Do built and
// sends nothing.
type captureTransport struct{ last http.Header }

func (c *captureTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	c.last = r.Header
	return nil, errCaptured
}

// signedPair is the per-request part of a header set NodeAgent.Do produced;
// the rest of the set is the same for every request of one identity.
type signedPair struct{ signature, timestamp []string }

// source is one workload identity and the constant part of the headers its
// NodeAgent sends.
type source struct {
	id   *canal.Identity
	base http.Header
}

// preparedSpec is a reqSpec with the headers every use of it shares.
type preparedSpec struct {
	reqSpec
	headers []headerKV
}

type headerKV struct {
	key  string
	vals []string
}

// world is one live set-up: upstream servers, a configured gateway behind a
// listener, the generated request stream and, on signed workloads, one
// signed header set per request.
type world struct {
	spec     worldSpec
	services [][]serviceInfo
	pools    map[string][]string
	ups      map[string]*upstream
	cas      []*canal.CA
	sources  [][]source // [tenant][allowed source]
	gw       *canal.GatewayServer
	gwSrv    *httptest.Server
	clients  [workers]*http.Client

	specs  []preparedSpec
	signed []signedPair
	hash   uint64
	// limit is how many stream entries a run may take: every entry of a
	// signed stream is used once, an unsigned stream cycles.
	limit  uint64
	cursor atomic.Uint64
	nonce  [8]byte // high half of every trace ID of this world

	bulkCompile  time.Duration // ConfigureService over every generated service
	presign      time.Duration
	mirrorsSent  atomic.Int64 // correct responses on the mirror route
	reconfigured atomic.Int64 // ConfigureService calls made after set-up
}

// newWorld sets a workload up from the seed. seconds sizes the stream of a
// signed workload.
func newWorld(seed int64, spec worldSpec, seconds, scale float64) (_ *world, err error) {
	w := &world{spec: spec, ups: make(map[string]*upstream)}
	defer func() {
		if err != nil {
			w.close()
		}
	}()
	nSpecs := int(unsignedPool * scale)
	if spec.auth {
		nSpecs = int(spec.rateCap*seconds) + warmupRequests
	}
	if nSpecs < 2*warmupRequests {
		nSpecs = 2 * warmupRequests
	}
	var specs []reqSpec
	w.services, specs = genWorld(seed, spec, nSpecs)
	w.hash = streamHash(specs)
	if spec.auth {
		w.limit = uint64(nSpecs - warmupRequests)
	}
	for i := range w.nonce {
		w.nonce[i] = byte(uint64(seed) >> (8 * i))
	}
	w.nonce[0] |= 0x80 // a trace ID must not be all zero

	w.pools = make(map[string][]string)
	for _, s := range []string{subsetV1, subsetV2, subsetShadow} {
		w.ups[s] = newUpstream(s)
		w.pools[s] = []string{w.ups[s].srv.URL}
	}
	if spec.auth {
		if err := w.issueIdentities(); err != nil {
			return nil, err
		}
	}
	if err := w.buildGateway(true); err != nil {
		return nil, err
	}
	for i := range w.clients {
		w.clients[i] = &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		}}
	}
	w.specs = make([]preparedSpec, len(specs))
	for i := range specs {
		w.specs[i] = prepare(specs[i], spec.auth)
	}
	if spec.auth {
		t0 := time.Now()
		if err := w.presignAll(); err != nil {
			return nil, err
		}
		w.presign = time.Since(t0)
	}
	if err := w.warmup(); err != nil {
		return nil, err
	}
	return w, nil
}

func (w *world) issueIdentities() error {
	w.cas = make([]*canal.CA, w.spec.tenants)
	w.sources = make([][]source, w.spec.tenants)
	for t := range w.cas {
		ca, err := canal.NewCA(tenantName(t) + "-ca")
		if err != nil {
			return err
		}
		w.cas[t] = ca
		for _, s := range allowedSources {
			id, err := ca.IssueIdentity("spiffe://" + tenantName(t) + "/ns/default/sa/" + s)
			if err != nil {
				return err
			}
			w.sources[t] = append(w.sources[t], source{id: id})
		}
	}
	return nil
}

// buildGateway makes a gateway with every generated service installed
// through ConfigureService and puts it behind a fresh listener, replacing
// the world's current one.
func (w *world) buildGateway(admissionOn bool) error {
	gw := canal.NewGatewayServer(1)
	gw.RequireAuth = w.spec.auth
	if admissionOn {
		gw.EnableAdmission(admissionConfig)
	}
	for t, ca := range w.cas {
		gw.RegisterTenant(tenantName(t), ca)
	}
	t0 := time.Now()
	for t := range w.services {
		for s := range w.services[t] {
			if err := gw.ConfigureService(tenantName(t), w.services[t][s].cfg, w.pools); err != nil {
				return fmt.Errorf("configuring %s/%s: %w", tenantName(t), serviceName(s), err)
			}
		}
	}
	w.bulkCompile = time.Since(t0)
	if w.gwSrv != nil {
		w.gwSrv.Close()
	}
	w.gw = gw
	w.gwSrv = httptest.NewServer(gw)
	return nil
}

// prepare builds the headers every use of sp shares. An unsigned request
// names its own tenant, service and source; a signed one gets them from the
// header set its NodeAgent produced.
func prepare(sp reqSpec, signed bool) preparedSpec {
	p := preparedSpec{reqSpec: sp}
	add := func(k, v string) { p.headers = append(p.headers, headerKV{http.CanonicalHeaderKey(k), []string{v}}) }
	if !signed {
		add(canal.HeaderTenant, tenantName(sp.tenant))
		add(canal.HeaderSource, sp.source)
		add(canal.HeaderSourcePod, sp.source+"-pod-0")
	}
	add(canal.HeaderService, serviceName(sp.service))
	add(hdrRouteKey, sp.routeKey)
	add(hdrStrip, "1")
	add(hdrExpect, sp.expectHeader())
	add("Accept", "*/*")
	add("X-Request-Class", strings.ToLower(sp.method))
	add("X-Client-Version", "canalbench/1")
	add("Cookie", fmt.Sprintf("session=s%d; %s=%s", sp.tenant, cookieRoute, sp.cookie))
	return p
}

// sourceIndex maps an allowed source name to its index in allowedSources.
func sourceIndex(name string) int {
	for i, s := range allowedSources {
		if s == name {
			return i
		}
	}
	return 0
}

// presignAll drives NodeAgent.Do once per stream entry with a transport
// that captures the request instead of sending it, and keeps each entry's
// signature and timestamp. The first capture of an identity also yields the
// headers all its requests share.
func (w *world) presignAll() error {
	w.signed = make([]signedPair, len(w.specs))
	errs := make([]error, workers)
	bases := make([][][]http.Header, workers)
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ct := &captureTransport{}
			agents := make([][]*canal.NodeAgent, len(w.sources))
			bases[g] = make([][]http.Header, len(w.sources))
			for t := range w.sources {
				bases[g][t] = make([]http.Header, len(w.sources[t]))
				for _, src := range w.sources[t] {
					agents[t] = append(agents[t], &canal.NodeAgent{
						Tenant:   tenantName(t),
						Identity: src.id,
						Gateway:  "http://presign.invalid",
						Client:   &http.Client{Transport: ct},
					})
				}
			}
			for i := g; i < len(w.specs); i += workers {
				sp := &w.specs[i]
				k := sourceIndex(sp.source)
				_, err := agents[sp.tenant][k].Do(sp.method, serviceName(sp.service), sp.path, nil, nil)
				if !errors.Is(err, errCaptured) {
					errs[g] = fmt.Errorf("presigning request %d: %w", i, err)
					return
				}
				h := ct.last
				w.signed[i] = signedPair{signature: h[canal.HeaderSignature], timestamp: h[canal.HeaderTimestamp]}
				if bases[g][sp.tenant][k] == nil {
					base := h.Clone()
					base.Del(canal.HeaderSignature)
					base.Del(canal.HeaderTimestamp)
					base.Del(canal.HeaderService)
					bases[g][sp.tenant][k] = base
				}
			}
		}(g)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	for t := range w.sources {
		for k := range w.sources[t] {
			for g := 0; g < workers && w.sources[t][k].base == nil; g++ {
				w.sources[t][k].base = bases[g][t][k]
			}
		}
	}
	return nil
}

// traceparent renders the W3C header of request id: the nonce and the
// request ID make the trace ID, and the ID doubles as the span ID.
func traceparent(nonce [8]byte, id uint64) string {
	var raw [24]byte
	copy(raw[:8], nonce[:])
	for i := 0; i < 8; i++ {
		raw[8+i] = byte(id >> (56 - 8*i))
		raw[16+i] = raw[8+i]
	}
	raw[16] |= 0x80 // a span ID must not be all zero
	var out [55]byte
	copy(out[:], "00-")
	hex.Encode(out[3:35], raw[:16])
	out[35] = '-'
	hex.Encode(out[36:52], raw[16:])
	copy(out[52:], "-01")
	return string(out[:])
}

// newRequest builds request id of the stream toward base (the gateway's or,
// for the bare baseline, an upstream's URL).
func (w *world) newRequest(id uint64, base string, direct bool) (*http.Request, *preparedSpec, error) {
	idx := id % uint64(len(w.specs))
	sp := &w.specs[idx]
	var body io.Reader
	if sp.bodyLen > 0 {
		// The reader's type hides its length, so the body goes out chunked.
		// With a Content-Length the gateway truncates about one reply in
		// 3000: when headers plus body end on a 4 KiB boundary of the
		// transport's write buffer, the upstream answers before the
		// transport's writer has made its last read of the inbound body,
		// the server closes that body as ReverseProxy starts the reply, the
		// read fails and the transport drops the upstream connection
		// mid-reply. That is the gateway's to fix (full duplex on the
		// ResponseController), not this benchmark's; the workloads are
		// meant to have no failing operation.
		body = struct{ io.Reader }{bytes.NewReader(bodyFor(id, sp.bodyLen))}
	}
	req, err := http.NewRequest(sp.method, base+sp.path, body)
	if err != nil {
		return nil, nil, err
	}
	h := make(http.Header, len(sp.headers)+8)
	for _, kv := range sp.headers {
		h[kv.key] = kv.vals
	}
	if w.spec.auth {
		for k, v := range w.sources[sp.tenant][sourceIndex(sp.source)].base {
			h[k] = v
		}
		h[canal.HeaderSignature] = w.signed[idx].signature
		h[canal.HeaderTimestamp] = w.signed[idx].timestamp
	}
	h[traceparentKey] = []string{traceparent(w.nonce, id)}
	if direct {
		h[hdrDirect] = []string{"1"}
	}
	req.Header = h
	return req, sp, nil
}

// warmup sends the stream's last warmupRequests entries, which no run uses
// on a signed stream, through the gateway on both connections.
func (w *world) warmup() error {
	first := uint64(len(w.specs) - warmupRequests)
	buf := make([]byte, postReply+1)
	for i := uint64(0); i < warmupRequests; i++ {
		if ex := w.exchange(w.clients[i%workers], first+i, w.gwSrv.URL, false, buf); ex.problem != "" {
			return fmt.Errorf("warm-up request %d: %s", i, ex.problem)
		}
	}
	return nil
}

func (w *world) close() {
	for _, c := range w.clients {
		if c != nil {
			c.CloseIdleConnections()
		}
	}
	if w.gwSrv != nil {
		w.gwSrv.Close()
	}
	for _, u := range w.ups {
		u.srv.Close()
	}
	// The gateway proxies through the default transport, which would keep
	// its connections to the closed upstreams.
	http.DefaultTransport.(*http.Transport).CloseIdleConnections()
}

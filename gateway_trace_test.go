package canal

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"canalmesh/internal/admission"
	"canalmesh/internal/trace"
)

func TestGatewayTraceparentRoundTrip(t *testing.T) {
	var mu sync.Mutex
	var upstreamTP string
	upstream := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		upstreamTP = r.Header.Get(trace.TraceparentHeader)
		mu.Unlock()
	}))
	defer upstream.Close()
	_, agent, gw := testMesh(t, ServiceConfig{Service: "web", DefaultSubset: "v1"},
		map[string][]string{"v1": {upstream.URL}}, false)

	// Caller-supplied context: the gateway must join it, not mint a new one.
	const parent = "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01"
	resp, err := agent.Do("GET", "web", "/hello", nil, map[string]string{trace.TraceparentHeader: parent})
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("status = %d", resp.StatusCode)
	}

	mu.Lock()
	got := upstreamTP
	mu.Unlock()
	id, span, sampled, err := trace.ParseTraceparent(got)
	if err != nil {
		t.Fatalf("upstream traceparent %q: %v", got, err)
	}
	if id.String() != "0af7651916cd43dd8448eb211c80319c" {
		t.Errorf("trace ID not propagated: got %s", id)
	}
	if span.String() == "b7ad6b7169203331" {
		t.Error("gateway must substitute its own span ID as the upstream parent")
	}
	if !sampled {
		t.Error("sampled flag lost in propagation")
	}

	// The joined trace is retained (sampled) with the upstream hop recorded.
	kept := gw.Tracer().Kept()
	if len(kept) != 1 {
		t.Fatalf("kept traces = %d, want 1", len(kept))
	}
	tr := kept[0]
	if tr.ID.String() != "0af7651916cd43dd8448eb211c80319c" {
		t.Errorf("kept trace ID = %s", tr.ID)
	}
	if tr.Status != 200 {
		t.Errorf("kept trace status = %d", tr.Status)
	}
	hops := tr.Hops()
	if len(hops) != 1 || hops[0].Name != "gateway/upstream" {
		t.Fatalf("hops = %+v, want one gateway/upstream span", hops)
	}
	if hops[0].End < hops[0].Start || tr.Total() <= 0 {
		t.Error("hop/root spans must have non-negative durations")
	}

	// The access log line joins back to the trace.
	entries := gw.AccessLog().FindTrace(tr.ID.String())
	if len(entries) != 1 || entries[0].Status != 200 {
		t.Fatalf("access-log join = %+v", entries)
	}
}

// TestGatewayUnsampledTraceTailKeptOnlyOnError joins requests to an
// unsampled propagated context (trace-flags 00). One that gets a 200 is in
// neither Kept nor Tail; the same context denied with 403 is tail-kept,
// keyed to its tenant.
func TestGatewayUnsampledTraceTailKeptOnlyOnError(t *testing.T) {
	v1 := echoServer("v1")
	defer v1.Close()
	cfg := ServiceConfig{Service: "web", DefaultSubset: "v1",
		Authz: []AuthzRule{{Name: "deny-admin", Action: AuthzDeny, Path: Prefix("/admin")}}}
	_, agent, gw := testMesh(t, cfg, map[string][]string{"v1": {v1.URL}}, false)
	const id = "0af7651916cd43dd8448eb211c80319c"
	get := func(path string, want int) {
		t.Helper()
		resp, err := agent.Do("GET", "web", path, nil, map[string]string{trace.TraceparentHeader: "00-" + id + "-b7ad6b7169203331-00"})
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Fatalf("GET %s: status %d, want %d", path, resp.StatusCode, want)
		}
	}

	get("/hello", http.StatusOK)
	if kept, tail := gw.Tracer().Kept(), gw.Tracer().Tail(); len(kept) != 0 || len(tail) != 0 {
		t.Fatalf("an unsampled 200 left %d kept and %d tail traces, want none", len(kept), len(tail))
	}

	get("/admin", http.StatusForbidden)
	kept, tail := gw.Tracer().Kept(), gw.Tracer().Tail()
	if len(kept) != 0 || len(tail) != 1 {
		t.Fatalf("after an unsampled 403: %d kept and %d tail traces, want 0 and 1", len(kept), len(tail))
	}
	if tr := tail[0]; tr.Sampled || tr.Status != http.StatusForbidden || tr.Tenant != "tenant1" || tr.ID.String() != id {
		t.Errorf("tail trace = sampled %v, status %d, tenant %q, id %s; want unsampled, 403, tenant1, %s",
			tr.Sampled, tr.Status, tr.Tenant, tr.ID, id)
	}
}

func TestNodeAgentOriginatesTraceparent(t *testing.T) {
	upstream := echoServer("v1")
	defer upstream.Close()
	_, agent, gw := testMesh(t, ServiceConfig{Service: "web", DefaultSubset: "v1"},
		map[string][]string{"v1": {upstream.URL}}, false)
	resp, err := agent.Get("web", "/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if agent.Tracer == nil {
		t.Fatal("NewNodeAgent should wire a live tracer")
	}
	akept := agent.Tracer.Kept()
	if len(akept) != 1 || akept[0].Status != 200 {
		t.Fatalf("agent kept = %+v", akept)
	}
	gkept := gw.Tracer().Kept()
	if len(gkept) != 1 {
		t.Fatalf("gateway kept = %d traces", len(gkept))
	}
	if gkept[0].ID != akept[0].ID {
		t.Errorf("gateway trace %s != agent trace %s: context not joined", gkept[0].ID, akept[0].ID)
	}
	if gkept[0].Root().Parent != akept[0].Root().ID {
		t.Error("gateway root span should be parented on the agent's root span")
	}
}

func TestGatewayShedAndUpstreamErrorsCarryTraceHeader(t *testing.T) {
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(150 * time.Millisecond)
	}))
	defer slow.Close()
	_, agent, gw := testMesh(t, ServiceConfig{Service: "web", DefaultSubset: "v1"},
		map[string][]string{"v1": {slow.URL}}, false)
	gw.EnableAdmission(admission.Config{
		Limiter: admission.LimiterConfig{InitialLimit: 1, MinLimit: 1, MaxLimit: 1},
	})

	var mu sync.Mutex
	shedHeaders := map[string]string{} // trace header -> body, for shed responses
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := agent.Get("web", "/")
			if err != nil {
				t.Error(err)
				return
			}
			body := readBody(t, resp)
			if resp.StatusCode == http.StatusTooManyRequests {
				mu.Lock()
				shedHeaders[resp.Header.Get(HeaderTrace)] = body
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if len(shedHeaders) == 0 {
		t.Fatal("expected at least one shed 429 with concurrency 4 against limit 1")
	}
	for h := range shedHeaders {
		if len(h) != 32 {
			t.Errorf("429 %s header = %q, want 32-hex trace ID", HeaderTrace, h)
		}
		// Every shed request's trace is retained and joinable.
		found := false
		for _, tr := range gw.Tracer().Kept() {
			if tr.ID.String() == h && tr.Status == http.StatusTooManyRequests {
				found = true
			}
		}
		if !found {
			t.Errorf("shed trace %s not in kept set", h)
		}
	}

	// Upstream transport failure: 502 must carry the trace header too.
	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	deadURL := dead.URL
	dead.Close()
	_, agent2, _ := testMesh(t, ServiceConfig{Service: "web", DefaultSubset: "v1"},
		map[string][]string{"v1": {deadURL}}, false)
	resp, err := agent2.Get("web", "/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("status = %d, want 502", resp.StatusCode)
	}
	if h := resp.Header.Get(HeaderTrace); len(h) != 32 {
		t.Errorf("502 %s header = %q, want 32-hex trace ID", HeaderTrace, h)
	}
}

func TestGatewayRecordsUpstreamStatus(t *testing.T) {
	failing := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "boom", http.StatusInternalServerError)
	}))
	defer failing.Close()
	_, agent, gw := testMesh(t, ServiceConfig{Service: "web", DefaultSubset: "v1"},
		map[string][]string{"v1": {failing.URL}}, false)

	resp, err := agent.Get("web", "/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500", resp.StatusCode)
	}
	// Upstream 5xx responses carry the trace ID so failures are joinable.
	h := resp.Header.Get(HeaderTrace)
	if len(h) != 32 {
		t.Fatalf("upstream 500 %s header = %q, want 32-hex trace ID", HeaderTrace, h)
	}
	// The trace and the access log both see the upstream's real status,
	// not a blanket 200.
	kept := gw.Tracer().Kept()
	if len(kept) != 1 || kept[0].Status != http.StatusInternalServerError {
		t.Fatalf("kept = %+v, want one trace with status 500", kept)
	}
	if kept[0].ID.String() != h {
		t.Errorf("response trace header %s != kept trace %s", h, kept[0].ID)
	}
	entries := gw.AccessLog().FindTrace(h)
	if len(entries) != 1 || entries[0].Status != http.StatusInternalServerError {
		t.Fatalf("access-log join = %+v, want one entry with status 500", entries)
	}
}

// TestGatewayMirrorForwardsBodyAndHeaders also pins the mirror's request
// target: it must be the primary's, escaped path and query included, so the
// shadow subset sees what the primary does.
func TestGatewayMirrorForwardsBodyAndHeaders(t *testing.T) {
	type seen struct {
		method, escapedPath, rawQuery, subset, custom, body string
	}
	ch := make(chan seen, 1)
	shadow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		b, _ := io.ReadAll(r.Body)
		ch <- seen{r.Method, r.URL.EscapedPath(), r.URL.RawQuery, r.Header.Get(HeaderSubset), r.Header.Get("X-Custom"), string(b)}
	}))
	defer shadow.Close()
	primary := echoServer("v1")
	defer primary.Close()

	cfg := ServiceConfig{Service: "web", DefaultSubset: "v1",
		Rules: []Rule{{Name: "mirror", MirrorTo: "shadow"}}}
	_, agent, gw := testMesh(t, cfg,
		map[string][]string{"v1": {primary.URL}, "shadow": {shadow.URL}}, false)

	for _, tc := range []struct {
		target, path, escapedPath, rawQuery string
	}{
		{"/orders", "/orders", "/orders", ""},
		{"/mirror/x?id=7", "/mirror/x", "/mirror/x", "id=7"},
		{"/mirror/a%3Fb", "/mirror/a?b", "/mirror/a%3Fb", ""},
	} {
		resp, err := agent.Do("POST", "web", tc.target, bytes.NewReader([]byte("payload-123")),
			map[string]string{"X-Custom": "abc"})
		if err != nil {
			t.Fatal(err)
		}
		if got := readBody(t, resp); !strings.HasPrefix(got, "v1|"+tc.path+"|") {
			t.Errorf("%s: primary response = %q: body must reach the primary intact after mirror buffering", tc.target, got)
		}

		select {
		case s := <-ch:
			if s.method != "POST" || s.escapedPath != tc.escapedPath || s.rawQuery != tc.rawQuery {
				t.Errorf("%s: mirror got %s path %q query %q, want POST path %q query %q",
					tc.target, s.method, s.escapedPath, s.rawQuery, tc.escapedPath, tc.rawQuery)
			}
			if s.subset != "shadow" {
				t.Errorf("%s: mirror subset header = %q, want shadow", tc.target, s.subset)
			}
			if s.custom != "abc" {
				t.Errorf("%s: mirror custom header = %q: headers must be forwarded", tc.target, s.custom)
			}
			if s.body != "payload-123" {
				t.Errorf("%s: mirror body = %q: body must be forwarded", tc.target, s.body)
			}
		case <-time.After(3 * time.Second):
			t.Fatalf("%s: mirror request never arrived", tc.target)
		}
	}
	if n := gw.MirrorFailures(); n != 0 {
		t.Errorf("mirror failures = %v, want 0", n)
	}
}

func TestGatewayMirrorFailureCountedNotSurfaced(t *testing.T) {
	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	deadURL := dead.URL
	dead.Close()
	primary := echoServer("v1")
	defer primary.Close()

	cfg := ServiceConfig{Service: "web", DefaultSubset: "v1",
		Rules: []Rule{{Name: "mirror", MirrorTo: "shadow"}}}
	_, agent, gw := testMesh(t, cfg,
		map[string][]string{"v1": {primary.URL}, "shadow": {deadURL}}, false)

	resp, err := agent.Get("web", "/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("primary status = %d: mirror failure must not surface", resp.StatusCode)
	}
	deadline := time.Now().Add(3 * time.Second)
	for gw.MirrorFailures() == 0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := gw.MirrorFailures(); n != 1 {
		t.Errorf("mirror failures = %v, want 1", n)
	}
}

// brokenBody is a reply body that returns part of a reply and then err, as
// a connection reset or a deadline passing mid-body does, and signals on
// closed when it is closed.
type brokenBody struct {
	sent   bool
	err    error
	closed chan<- struct{}
}

func (b *brokenBody) Read(p []byte) (int, error) {
	if !b.sent {
		b.sent = true
		return copy(p, "partial"), nil
	}
	return 0, b.err
}

func (b *brokenBody) Close() error {
	b.closed <- struct{}{}
	return nil
}

// TestGatewayMirrorBodyErrorCounted has the shadow's reply break off while
// the mirror reads it: the round trip succeeded, but the exchange did not,
// so it counts as a mirror failure, and the primary still gets its 200.
func TestGatewayMirrorBodyErrorCounted(t *testing.T) {
	for _, cause := range []error{syscall.ECONNRESET, context.DeadlineExceeded} {
		closed := make(chan struct{}, 1)
		gw := stubGateway(t, roundTripFunc(func(r *http.Request) (*http.Response, error) {
			if r.URL.Host == "shadow.invalid" {
				return stubResponse(r, http.StatusOK, &brokenBody{err: cause, closed: closed}), nil
			}
			return stubResponse(r, http.StatusOK, http.NoBody), nil
		}), ServiceConfig{Service: "web", DefaultSubset: "v1", Rules: []Rule{{Name: "mirror", MirrorTo: "shadow"}}})

		req := httptest.NewRequest(http.MethodGet, "/orders", nil)
		req.Header.Set(HeaderTenant, "tenant1")
		req.Header.Set(HeaderService, "web")
		w := httptest.NewRecorder()
		gw.ServeHTTP(w, req)
		if w.Code != http.StatusOK {
			t.Fatalf("%v: primary status = %d: a mirror failure must not surface", cause, w.Code)
		}
		<-closed // the mirror counts a failed read before it closes the reply
		if n := gw.MirrorFailures(); n != 1 {
			t.Errorf("%v: mirror failures = %v, want 1", cause, n)
		}
	}
}

// roundTripFunc is a RoundTripper made of one function.
type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

// drainSignal is a reply body that signals on done when it is closed after
// being read to EOF, and not when it is closed before.
type drainSignal struct {
	r    io.Reader
	eof  bool
	done chan<- struct{}
}

func (b *drainSignal) Read(p []byte) (int, error) {
	n, err := b.r.Read(p)
	b.eof = b.eof || err == io.EOF
	return n, err
}

func (b *drainSignal) Close() error {
	if b.eof {
		b.done <- struct{}{}
	}
	return nil
}

// TestGatewayMirrorNeverFollowsRedirect has the shadow answer the mirror with
// a 307 to another host. The redirect is the shadow's reply, read to its end
// and dropped: the mirror sends nothing to the host it names. The reply's
// body is larger than an http.Client reads of a redirect before it closes
// one, so a client that follows closes it unread.
func TestGatewayMirrorNeverFollowsRedirect(t *testing.T) {
	drained, followed := make(chan struct{}, 1), make(chan struct{}, 1)
	gw := stubGateway(t, roundTripFunc(func(r *http.Request) (*http.Response, error) {
		switch r.URL.Host {
		case "shadow.invalid":
			resp := stubResponse(r, http.StatusTemporaryRedirect,
				&drainSignal{r: strings.NewReader(strings.Repeat("x", 3000)), done: drained})
			resp.ContentLength = 3000
			resp.Header.Set("Location", "http://elsewhere.invalid/moved")
			return resp, nil
		case "elsewhere.invalid":
			return stubResponse(r, http.StatusOK, mirrorDone(followed)), nil
		}
		return stubResponse(r, http.StatusOK, http.NoBody), nil
	}), ServiceConfig{Service: "web", DefaultSubset: "v1", Rules: []Rule{{Name: "mirror", MirrorTo: "shadow"}}})

	req := httptest.NewRequest(http.MethodGet, "/orders", nil)
	req.Header.Set(HeaderTenant, "tenant1")
	req.Header.Set(HeaderService, "web")
	w := httptest.NewRecorder()
	gw.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("primary status = %d", w.Code)
	}
	select {
	case <-drained:
	case <-followed:
		t.Fatal("the mirror followed the shadow's redirect to elsewhere.invalid")
	}
	if n := gw.MirrorFailures(); n != 0 {
		t.Errorf("mirror failures = %v, want 0: a redirect is an answer", n)
	}
}

// TestGatewayMirrorKeepsDeadline checks that the mirror's round trip runs
// under a deadline of mirrorTimeout from its send. It brackets the deadline
// the transport sees between those of two contexts given the same timeout,
// one made before the request is served and one after the round trip began.
func TestGatewayMirrorKeepsDeadline(t *testing.T) {
	type seen struct {
		deadline time.Time
		ok       bool
	}
	sent := make(chan seen, 1)
	gw := stubGateway(t, roundTripFunc(func(r *http.Request) (*http.Response, error) {
		if r.URL.Host == "shadow.invalid" {
			d, ok := r.Context().Deadline()
			sent <- seen{d, ok}
		}
		return stubResponse(r, http.StatusOK, http.NoBody), nil
	}), ServiceConfig{Service: "web", DefaultSubset: "v1", Rules: []Rule{{Name: "mirror", MirrorTo: "shadow"}}})

	deadlineFromNow := func() time.Time {
		ctx, cancel := context.WithTimeout(context.Background(), mirrorTimeout)
		defer cancel()
		d, _ := ctx.Deadline()
		return d
	}
	req := httptest.NewRequest(http.MethodGet, "/orders", nil)
	req.Header.Set(HeaderTenant, "tenant1")
	req.Header.Set(HeaderService, "web")
	earliest := deadlineFromNow()
	gw.ServeHTTP(httptest.NewRecorder(), req)
	got := <-sent
	latest := deadlineFromNow()
	if !got.ok {
		t.Fatal("the mirror's round trip has no deadline")
	}
	if got.deadline.Before(earliest) || got.deadline.After(latest) {
		t.Errorf("mirror deadline %v, want within [%v, %v]: mirrorTimeout (%v) from its send",
			got.deadline, earliest, latest, mirrorTimeout)
	}
}

package canal

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"

	"canalmesh/internal/admission"
)

// serveHTTPAllocs pins what one request costs ServeHTTP in heap
// allocations, per way through it, at steady state (the tracer's kept ring
// full and recycling), and what two of its layers cost on their own. The
// mirrored row counts the mirror goroutine's work too. TestServeHTTPAllocs
// counts every allocation of a row's runs and fails when the row reads more
// than allocsSlack over its pin; a fall is logged, to be pinned here.
var serveHTTPAllocs = map[string]float64{
	"routed":        22,
	"policy_denied": 11,
	"shed":          17,
	"signed":        33,
	"mirrored":      34,
	"authenticate":  11,
	"log_req":       1,
}

// allocsSlack is what a row may read above its pin: allocations made once
// per measurement, not per request, spread over its 1000 runs. They are
// the access log's entry slice growing once while it holds 4 201 to 5 202
// entries (0.001 on every row that logs, none on authenticate), and each
// sync.Pool the request path draws from making its per-P cache again, and
// refilling it, after a GC in the window (up to 0.005 a row). A
// measurement that began without mallocsPerRun's warm-up call also paid
// every pool's refill from the per-P caches lost when GOMAXPROCS changed:
// that is what made routed read 22.009.
const allocsSlack = 0.02

// stubUpstream answers every request with an empty 200 and sends nothing,
// so the proxy's work is measured without a socket. Its own allocations —
// the response, its header map and the outbound request's clone that
// round-trips through it — count in every proxied row. A request for the
// shadow.invalid host, a mirror's one round trip on the gateway's
// transport, gets a body that signals mirrored when closed, the mirror
// goroutine's last step.
type stubUpstream struct{ mirrored chan struct{} }

func (s stubUpstream) RoundTrip(r *http.Request) (*http.Response, error) {
	var body io.ReadCloser = http.NoBody
	if r.URL.Host == "shadow.invalid" {
		body = mirrorDone(s.mirrored)
	}
	return stubResponse(r, http.StatusOK, body), nil
}

// stubResponse is a reply to r with the given status and body.
func stubResponse(r *http.Request, status int, body io.ReadCloser) *http.Response {
	return &http.Response{
		StatusCode: status, Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
		Header: make(http.Header), Body: body, Request: r,
	}
}

// stubGateway returns a gateway whose upstream hop is rt, with tenant1's
// service configured as cfg over two pools: v1 at upstream.invalid and
// shadow at shadow.invalid.
func stubGateway(t *testing.T, rt http.RoundTripper, cfg ServiceConfig) *GatewayServer {
	t.Helper()
	gw := newGatewayServer(1, rt)
	ca, err := NewCA("tenant1-ca")
	if err != nil {
		t.Fatal(err)
	}
	if err := gw.RegisterTenant("tenant1", ca); err != nil {
		t.Fatal(err)
	}
	pools := map[string][]string{"v1": {"http://upstream.invalid"}, "shadow": {"http://shadow.invalid"}}
	if err := gw.ConfigureService("tenant1", cfg, pools); err != nil {
		t.Fatal(err)
	}
	return gw
}

// mirrorDone is an empty body that signals on its channel when closed: the
// mirror goroutine closes its reply once it has read it to the end.
type mirrorDone chan struct{}

func (mirrorDone) Read([]byte) (int, error) { return 0, io.EOF }

func (d mirrorDone) Close() error {
	d <- struct{}{}
	return nil
}

// discardWriter is a ResponseWriter that keeps nothing but its header map,
// emptied before every request so each one writes its headers afresh.
type discardWriter struct {
	header http.Header
	status int
}

func (w *discardWriter) Header() http.Header         { return w.header }
func (w *discardWriter) Write(b []byte) (int, error) { return len(b), nil }
func (w *discardWriter) WriteHeader(status int)      { w.status = status }

// TestServeHTTPAllocs measures allocs/op on five ways through ServeHTTP:
// a routed request carrying a cookie, one refused by an authz rule, one
// shed by admission, a signed request whose certificate the tenant CA has
// verified before, and a routed request mirrored to a shadow subset, each
// run waiting for its mirror to finish. Each gateway first serves more
// requests than its tracer keeps, so recycled traces are what the measured
// requests get. Two layers are measured alone: authenticate on a memo hit,
// and logReq of a request whose trace ID is rendered for its log line.
func TestServeHTTPAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation counts")
	}
	// warmup is more requests than a live tracer keeps (4096).
	const warmup = 4200
	mirrored := make(chan struct{})
	newGateway := func(cfg ServiceConfig) *GatewayServer {
		return stubGateway(t, stubUpstream{mirrored}, cfg)
	}
	newRequest := func(source string) *http.Request {
		r := httptest.NewRequest(http.MethodGet, "/api/cart", nil)
		r.Header.Set(HeaderTenant, "tenant1")
		r.Header.Set(HeaderService, "web")
		r.Header.Set(HeaderSource, source)
		r.Header.Set("Cookie", "lane=b")
		return r
	}
	web := ServiceConfig{Service: "web", DefaultSubset: "v1"}

	routed := newGateway(web)

	denied := newGateway(ServiceConfig{Service: "web", DefaultSubset: "v1",
		Authz: []AuthzRule{{Name: "block-intruder", Action: AuthzDeny, SourceService: Exact("intruder")}}})

	// One slot, held for the whole test: every request is over its
	// tenant's fair share.
	shed := newGateway(web)
	shed.EnableAdmission(admission.Config{
		Limiter: admission.LimiterConfig{InitialLimit: 1, MinLimit: 1, MaxLimit: 1},
	})
	hold, rej := shed.config.Load().admit.Admit("tenant1", "web", false)
	if rej != nil {
		t.Fatal(rej)
	}
	defer hold(true)

	signed := newGateway(web)
	signed.RequireAuth = true
	ca := signed.config.Load().tenants["tenant1"].ca
	id, err := ca.IssueIdentity("spiffe://tenant1/ns/default/sa/client")
	if err != nil {
		t.Fatal(err)
	}
	signedReq := newRequest("")
	for k, v := range signedHeaders(t, id, "web", "/api/cart") {
		signedReq.Header[k] = v
	}

	shadowed := newGateway(ServiceConfig{Service: "web", DefaultSubset: "v1",
		Rules: []Rule{{Name: "shadow-all", MirrorTo: "shadow"}}})

	logged := newGateway(web)
	st := &requestState{
		req:     Request{Tenant: "tenant1", Method: http.MethodGet, Path: "/api/cart", SourceService: "web"},
		service: "web", status: http.StatusOK,
		tr: logged.tracer.StartTenant("gateway", "tenant1", "GET /api/cart"),
	}

	// serve returns one request through gw, checked for its status.
	serve := func(gw *GatewayServer, r *http.Request, want int) func() error {
		w := &discardWriter{header: make(http.Header)}
		return func() error {
			clear(w.header)
			w.status = http.StatusOK
			gw.ServeHTTP(w, r)
			if w.status != want {
				return fmt.Errorf("status %d, want %d", w.status, want)
			}
			return nil
		}
	}
	serveMirrored := serve(shadowed, newRequest("web"), http.StatusOK)
	rows := []struct {
		name string
		run  func() error
	}{
		{"routed", serve(routed, newRequest("web"), http.StatusOK)},
		{"policy_denied", serve(denied, newRequest("intruder"), http.StatusForbidden)},
		{"shed", serve(shed, newRequest("web"), http.StatusTooManyRequests)},
		{"signed", serve(signed, signedReq, http.StatusOK)},
		{"mirrored", func() error {
			err := serveMirrored()
			if err == nil {
				<-mirrored
			}
			return err
		}},
		{"authenticate", func() error {
			_, err := authenticate(signedReq, "tenant1", "web", ca)
			return err
		}},
		{"log_req", func() error {
			st.traceID = ""
			logged.logReq(st)
			return nil
		}},
	}
	for _, row := range rows {
		var err error
		for i := 0; i < warmup && err == nil; i++ {
			err = row.run()
		}
		if err != nil {
			t.Fatalf("%s: %v", row.name, err)
		}
		got := mallocsPerRun(1000, func() {
			if e := row.run(); e != nil {
				err = e
			}
		})
		if err != nil {
			t.Fatalf("%s: %v", row.name, err)
		}
		want := serveHTTPAllocs[row.name]
		switch {
		case got > want+allocsSlack:
			t.Errorf("%s: %.3f allocs/op, pinned at %v", row.name, got, want)
		case got < want:
			t.Logf("%s: %.3f allocs/op, below the pin of %v: lower the pin", row.name, got, want)
		}
	}
}

// mallocsPerRun is every allocation runs calls of f make, divided by runs:
// testing.AllocsPerRun truncates its mean to a whole number, which hides up
// to 0.999 allocations a call. One call first, at GOMAXPROCS 1, refills the
// sync.Pool caches that changing GOMAXPROCS drops.
func mallocsPerRun(runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(runs)
}

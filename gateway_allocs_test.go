package canal

import (
	"net/http"
	"net/http/httptest"
	"testing"

	"canalmesh/internal/admission"
)

// serveHTTPAllocs pins what one request costs ServeHTTP in heap
// allocations, per way through it, at steady state (the tracer's kept ring
// full and recycling). TestServeHTTPAllocs fails when any row rises; a fall
// is logged, to be pinned here.
var serveHTTPAllocs = map[string]float64{
	"routed":        24,
	"policy_denied": 13,
	"shed":          17,
	"signed":        40,
}

// stubUpstream answers every request with an empty 200 and sends nothing,
// so the proxy's work is measured without a socket. Its own allocations —
// the response, its header map and the outbound request's clone that
// round-trips through it — count in every proxied row.
type stubUpstream struct{}

func (stubUpstream) RoundTrip(r *http.Request) (*http.Response, error) {
	return &http.Response{
		StatusCode: http.StatusOK, Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
		Header: make(http.Header), Body: http.NoBody, Request: r,
	}, nil
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

// TestServeHTTPAllocs measures allocs/op on four ways through ServeHTTP:
// a routed request carrying a cookie, one refused by an authz rule, one
// shed by admission, and a signed request whose certificate the tenant CA
// has verified before. Each gateway first serves more requests than its
// tracer keeps, so recycled traces are what the measured requests get.
func TestServeHTTPAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation counts")
	}
	// warmup is more requests than a live tracer keeps (4096).
	const warmup = 4200
	newGateway := func(cfg ServiceConfig) *GatewayServer {
		gw := NewGatewayServer(1)
		gw.proxy.Transport = stubUpstream{}
		ca, err := NewCA("tenant1-ca")
		if err != nil {
			t.Fatal(err)
		}
		gw.RegisterTenant("tenant1", ca)
		if err := gw.ConfigureService("tenant1", cfg, map[string][]string{"v1": {"http://upstream.invalid"}}); err != nil {
			t.Fatal(err)
		}
		return gw
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
	id, err := signed.config.Load().tenants["tenant1"].ca.IssueIdentity("spiffe://tenant1/ns/default/sa/client")
	if err != nil {
		t.Fatal(err)
	}
	signedReq := newRequest("")
	for k, v := range signedHeaders(t, id, "web", "/api/cart") {
		signedReq.Header[k] = v
	}

	rows := []struct {
		name string
		gw   *GatewayServer
		r    *http.Request
		want int
	}{
		{"routed", routed, newRequest("web"), http.StatusOK},
		{"policy_denied", denied, newRequest("intruder"), http.StatusForbidden},
		{"shed", shed, newRequest("web"), http.StatusTooManyRequests},
		{"signed", signed, signedReq, http.StatusOK},
	}
	for _, row := range rows {
		w := &discardWriter{header: make(http.Header)}
		serve := func() {
			clear(w.header)
			w.status = http.StatusOK
			row.gw.ServeHTTP(w, row.r)
		}
		for i := 0; i < warmup; i++ {
			serve()
		}
		if w.status != row.want {
			t.Fatalf("%s: status %d, want %d", row.name, w.status, row.want)
		}
		got := testing.AllocsPerRun(1000, serve)
		if w.status != row.want {
			t.Fatalf("%s: status %d, want %d", row.name, w.status, row.want)
		}
		want := serveHTTPAllocs[row.name]
		switch {
		case got > want:
			t.Errorf("%s: %v allocs/op, pinned at %v", row.name, got, want)
		case got < want:
			t.Logf("%s: %v allocs/op, below the pin of %v: lower the pin", row.name, got, want)
		}
	}
}

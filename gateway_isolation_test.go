package canal

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"canalmesh/internal/admission"
)

// awaitHandlers serves gw behind a wrapper that lets a test wait until every
// handler it started has fully returned — deferred completion included,
// which a client can otherwise race: it may see the reply, or the torn-down
// connection, before the gateway's deferred bookkeeping has run.
func awaitHandlers(t *testing.T, gw *GatewayServer) (srv *httptest.Server, wait func()) {
	t.Helper()
	var inflight sync.WaitGroup
	srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		inflight.Add(1)
		defer inflight.Done()
		gw.ServeHTTP(w, r)
	}))
	t.Cleanup(srv.Close)
	return srv, inflight.Wait
}

// TestPooledStateTenantIsolation is the runtime complement of canalvet's
// poolbleed and tenantflow: per-request state is recycled between requests
// of different tenants, so nothing of tenant A's request — the header and
// cookie its rules route on, the decision they produce, its trace — may show
// up in the tenant B request that reuses the state. Both tenants install the
// same rule; only A's requests carry what it matches.
func TestPooledStateTenantIsolation(t *testing.T) {
	// An upstream names itself and reports what the gateway forwarded; it
	// fails every other request so X-Canal-Trace comes back too.
	echo := func(name string) *httptest.Server {
		return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if strings.HasSuffix(r.URL.Path, "/fail") {
				w.WriteHeader(http.StatusInternalServerError)
			}
			fmt.Fprintf(w, "%s|%s|%s", name, r.Header.Get(HeaderSubset), r.Header.Get("X-Injected"))
		}))
	}
	gw := NewGatewayServer(1)
	gwSrv := httptest.NewServer(gw)
	defer gwSrv.Close()
	for _, tenant := range []string{"a", "b"} {
		v1, beta := echo(tenant+"-v1"), echo(tenant+"-beta")
		defer v1.Close()
		defer beta.Close()
		cfg := ServiceConfig{
			Service: "web", DefaultSubset: "v1",
			Rules: []Rule{{
				Name: "beta-users",
				Match: RouteMatch{
					Headers: []KVMatch{{Name: "X-User-Group", Match: Exact("beta")}},
					Cookies: []KVMatch{{Name: "lane", Match: Exact("b")}},
				},
				Splits:     []Split{{Subset: "beta", Weight: 1}},
				SetHeaders: map[string]string{"X-Injected": "for-" + tenant + "-beta"},
			}},
		}
		if err := gw.ConfigureService(tenant, cfg, map[string][]string{"v1": {v1.URL}, "beta": {beta.URL}}); err != nil {
			t.Fatal(err)
		}
	}

	const workers, perWorker = 8, 40
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				tenant, want := "a", "a-beta|beta|for-a-beta"
				if (g+i)%2 == 1 {
					tenant, want = "b", "b-v1|v1|"
				}
				path, wantStatus := "/ok", http.StatusOK
				if i%4 >= 2 {
					path, wantStatus = "/fail", http.StatusInternalServerError
				}
				traceID := fmt.Sprintf("%016x%08x%08x", uint64(tenant[0]), g+1, i+1)
				req, err := http.NewRequest(http.MethodGet, gwSrv.URL+path, nil)
				if err != nil {
					t.Error(err)
					return
				}
				req.Header.Set(HeaderTenant, tenant)
				req.Header.Set(HeaderService, "web")
				req.Header.Set("Traceparent", "00-"+traceID+"-00f067aa0ba902b7-01")
				if tenant == "a" {
					req.Header.Set("X-User-Group", "beta")
					req.Header.Set("Cookie", "lane=b")
				}
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					t.Error(err)
					return
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					t.Error(err)
					return
				}
				if resp.StatusCode != wantStatus || string(body) != want {
					t.Errorf("tenant %s %s: status %d body %q, want %d %q", tenant, path, resp.StatusCode, body, wantStatus, want)
				}
				wantTrace := ""
				if wantStatus >= 400 {
					wantTrace = traceID
				}
				if got := resp.Header.Get(HeaderTrace); got != wantTrace {
					t.Errorf("tenant %s %s: %s = %q, want %q", tenant, path, HeaderTrace, got, wantTrace)
				}
			}
		}()
	}
	wg.Wait()

	// Every log line and kept trace is keyed to the tenant whose trace ID
	// (its first byte pair is the tenant's letter) it carries.
	for _, e := range gw.AccessLog().Entries() {
		if want := fmt.Sprintf("%016x", uint64(e.Tenant[0])); !strings.HasPrefix(e.TraceID, want) {
			t.Errorf("access-log entry of tenant %s carries trace %s", e.Tenant, e.TraceID)
		}
	}
	for _, tr := range gw.Tracer().Kept() {
		if want := fmt.Sprintf("%016x", uint64(tr.Tenant[0])); !strings.HasPrefix(tr.ID.String(), want) {
			t.Errorf("kept trace of tenant %s has ID %s", tr.Tenant, tr.ID)
		}
	}
	if n := gw.AccessLog().Len(); n != workers*perWorker {
		t.Errorf("access log has %d entries, want %d", n, workers*perWorker)
	}
}

// TestPooledStateRoundRobinConcurrent draws from one three-member pool on
// eight goroutines: the shared cursor must hand every member its third.
func TestPooledStateRoundRobinConcurrent(t *testing.T) {
	var hits [3]atomic.Int64
	var urls []string
	for i := range hits {
		srv := httptest.NewServer(http.HandlerFunc(func(http.ResponseWriter, *http.Request) { hits[i].Add(1) }))
		defer srv.Close()
		urls = append(urls, srv.URL)
	}
	_, agent, _ := testMesh(t, ServiceConfig{Service: "web", DefaultSubset: "v1"}, map[string][]string{"v1": urls}, false)
	const workers, perWorker = 8, 15
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				resp, err := agent.Get("web", "/")
				if err != nil {
					t.Error(err)
					return
				}
				resp.Body.Close()
			}
		}()
	}
	wg.Wait()
	for i := range hits {
		if n, third := hits[i].Load(), int64(workers*perWorker/3); n < third-1 || n > third+1 {
			t.Errorf("pool member %d served %d of %d requests, want a third", i, n, workers*perWorker)
		}
	}
}

// TestGatewayAbortedReplyIsAFailedExchange is the regression test for the
// lost log line: when the upstream dies mid-body ReverseProxy panics with
// http.ErrAbortHandler, which used to skip the upstream hop and the access
// log, leave the kept trace at the upstream's 200, and credit the admission
// layer a success.
func TestGatewayAbortedReplyIsAFailedExchange(t *testing.T) {
	truncating := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Length", "100000")
		w.Write([]byte("ten bytes!"))
		// Returning short of the declared length makes net/http drop the
		// connection: the gateway sees the body end early.
	}))
	defer truncating.Close()
	gw := NewGatewayServer(1)
	gw.EnableAdmission(admission.Config{})
	if err := gw.ConfigureService("tenant1", ServiceConfig{Service: "web", DefaultSubset: "v1"},
		map[string][]string{"v1": {truncating.URL}}); err != nil {
		t.Fatal(err)
	}
	gwSrv, wait := awaitHandlers(t, gw)

	req, _ := http.NewRequest(http.MethodGet, gwSrv.URL+"/big", nil)
	req.Header.Set(HeaderTenant, "tenant1")
	req.Header.Set(HeaderService, "web")
	if resp, err := http.DefaultClient.Do(req); err == nil {
		_, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		if err == nil {
			t.Fatal("client read a complete reply from a truncating upstream")
		}
	}
	wait()

	entries := gw.AccessLog().Entries()
	if len(entries) != 1 || entries[0].Status != http.StatusBadGateway || entries[0].Path != "/big" {
		t.Fatalf("access log = %+v, want one 502 entry for /big", entries)
	}
	kept := gw.Tracer().Kept()
	if len(kept) != 1 || kept[0].Status != http.StatusBadGateway {
		t.Fatalf("kept traces = %+v, want one with status 502", kept)
	}
	if hops := kept[0].Hops(); len(hops) != 1 || hops[0].Name != "gateway/upstream" {
		t.Errorf("hops = %+v, want the gateway/upstream hop of the aborted exchange", hops)
	}
	if entries[0].TraceID != kept[0].ID.String() {
		t.Errorf("log line trace %s does not join kept trace %s", entries[0].TraceID, kept[0].ID)
	}
	if n := gw.AdmissionMetrics().Tenant("tenant1").Admitted.Value(); n != 0 {
		t.Errorf("admission credited %v successes for an aborted reply, want 0", n)
	}
}

// TestConfigureServiceBadUpstreamAppliesNothing is the regression test for
// the partial apply: a bad upstream address used to be found only after the
// service's routing rules and authz intentions had been replaced, leaving
// new rules over old pools.
func TestConfigureServiceBadUpstreamAppliesNothing(t *testing.T) {
	v1 := echoServer("v1")
	defer v1.Close()
	other := echoServer("other")
	defer other.Close()
	cfg := ServiceConfig{
		Service: "web", DefaultSubset: "v1",
		Authz: []AuthzRule{{Name: "block-intruder", Action: AuthzDeny, SourceService: Exact("intruder")}},
	}
	gwSrv, _, gw := testMesh(t, cfg, map[string][]string{"v1": {v1.URL}}, false)

	get := func(source string) (int, string) {
		t.Helper()
		req, _ := http.NewRequest(http.MethodGet, gwSrv.URL+"/home", nil)
		req.Header.Set(HeaderTenant, "tenant1")
		req.Header.Set(HeaderService, "web")
		req.Header.Set(HeaderSource, source)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, readBody(t, resp)
	}
	check := func(when string) {
		t.Helper()
		if status, body := get("client"); status != 200 || body != "v1|/home|v1" {
			t.Errorf("%s: client got %d %q, want 200 from v1 on the original path", when, status, body)
		}
		if status, _ := get("intruder"); status != http.StatusForbidden {
			t.Errorf("%s: intruder got %d, want 403", when, status)
		}
	}
	check("before")

	// New routing (rewrite, other subset), new authz (intruder allowed,
	// client denied), new pools — and one address that does not parse.
	bad := ServiceConfig{
		Service: "web", DefaultSubset: "other",
		Rules: []Rule{{Name: "rewrite", PathRewrite: "/rewritten"}},
		Authz: []AuthzRule{{Name: "block-client", Action: AuthzDeny, SourceService: Exact("client")}},
	}
	err := gw.ConfigureService("tenant1", bad, map[string][]string{"other": {other.URL}, "v1": {"://bad"}})
	if err == nil {
		t.Fatal("a bad upstream address should fail configuration")
	}
	check("after the failed call")
}

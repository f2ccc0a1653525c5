package canal

import (
	"fmt"
	"io"
	"maps"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

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

// TestPooledStateTenantIsolation is the runtime check of the property the
// shared gateway rests on: nothing one tenant sends reaches another tenant.
// Three tenants share the gateway, one service name ("web") and the pooled
// per-request state, and each marks everything it sends with a marker string
// of its own: path, query, headers, cookies, body and X-Canal-Source. Eight
// goroutines interleave them over every way through ServeHTTP — routed
// (on the default subset and, by a header and a cookie, on another),
// mirrored, an upstream 5xx, a missing header, an unknown service, a policy
// denial, an admission shed and an authentication refusal — in three passes:
// admission and authentication off; admission on, with every request marked
// as a retry so the retry budget sheds; and authentication on as well, signed
// requests beside unsigned ones.
//
// Every artifact the gateway produces is then attributed to a tenant: a
// response to the tenant that sent the request, a forwarded or mirrored
// request to the tenant whose upstream received it, an access-log entry or a
// kept trace to the tenant it names. No artifact may carry another tenant's
// marker, every log entry and kept trace must name a tenant, and none may
// carry a trace ID another tenant sent (half the requests join a trace their
// tenant started, the rest start one at the gateway). Each request's status,
// the upstream and subset that answered and the X-Canal-Trace header are
// checked as well, so residue that reroutes a request without carrying a
// marker is caught too: every tenant installs the same header rule, and only
// some requests carry what it matches. A refusal's body is checked whole, so
// one served from residue is caught even when the residue predates the test
// (an earlier test filled a cache the test's tenants then read) and carries
// no marker it knows.
func TestPooledStateTenantIsolation(t *testing.T) {
	type tenant struct {
		name, marker string
		traceHi      string               // the first 16 hex digits of every trace ID it sends
		ids          map[string]*Identity // by source service: client-<marker>, intruder-<marker>
	}
	tenants := []*tenant{{name: "ta", marker: "zulumark"}, {name: "tb", marker: "yankmark"}, {name: "tc", marker: "xraymark"}}
	byName := map[string]*tenant{}

	// An artifact is one thing the gateway produced, attributed to the tenant
	// it belongs to.
	type artifact struct{ owner, what, text string }
	var (
		mu        sync.Mutex
		artifacts []artifact
		mirrored  atomic.Int64
	)
	record := func(owner, what, text string) {
		mu.Lock()
		artifacts = append(artifacts, artifact{owner, what, text})
		mu.Unlock()
	}

	gw := NewGatewayServer(1)
	for i, tn := range tenants {
		byName[tn.name] = tn
		tn.traceHi = fmt.Sprintf("%016x", i+1)
		ca, err := NewCA(tn.name + "-ca")
		if err != nil {
			t.Fatal(err)
		}
		if err := gw.RegisterTenant(tn.name, ca); err != nil {
			t.Fatal(err)
		}
		tn.ids = map[string]*Identity{}
		for _, source := range []string{"client-" + tn.marker, "intruder-" + tn.marker} {
			if tn.ids[source], err = ca.IssueIdentity("spiffe://" + tn.name + "/ns/default/sa/" + source); err != nil {
				t.Fatal(err)
			}
		}
		// An upstream records what the gateway sent it as an artifact of its
		// tenant, fails paths ending in /fail, and names itself, the subset it
		// was sent as and the header the tenant's rule injects.
		upstream := func(subset string) string {
			name := tn.name + "-" + subset
			srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				body, _ := io.ReadAll(r.Body)
				mirror := subset == "shadow"
				what := "request forwarded to " + name
				if mirror {
					what = "request mirrored to " + name
				}
				record(tn.name, what, r.Method+" "+r.RequestURI+"\n"+headerLines(r.Header)+"\n"+string(body))
				if mirror {
					mirrored.Add(1)
				}
				if strings.HasSuffix(r.URL.Path, "/fail") {
					w.WriteHeader(http.StatusInternalServerError)
				}
				fmt.Fprintf(w, "%s|%s|%s", name, r.Header.Get(HeaderSubset), r.Header.Get("X-Injected"))
			}))
			t.Cleanup(srv.Close)
			return srv.URL
		}
		cfg := ServiceConfig{
			Service: "web", DefaultSubset: "v1",
			Rules: []Rule{
				{
					Name: "beta-users",
					Match: RouteMatch{
						Headers: []KVMatch{{Name: "X-User-Group", Match: Exact("beta")}},
						Cookies: []KVMatch{{Name: "lane", Match: Exact("b")}},
					},
					Splits:     []Split{{Subset: "beta", Weight: 1}},
					SetHeaders: map[string]string{"X-Injected": "for-" + tn.marker},
				},
				{Name: "shadow", Match: RouteMatch{Path: Prefix("/mirror/")}, MirrorTo: "shadow"},
			},
			Authz: []AuthzRule{{Name: "no-intruders", Action: AuthzDeny, SourceService: Prefix("intruder-")}},
		}
		pools := map[string][]string{"v1": {upstream("v1")}, "beta": {upstream("beta")}, "shadow": {upstream("shadow")}}
		if err := gw.ConfigureService(tn.name, cfg, pools); err != nil {
			t.Fatal(err)
		}
	}

	ways := []string{"routed", "lane", "mirrored", "upstream-5xx", "missing-headers", "unknown-service", "policy-denied", "unsigned"}
	passes := []struct {
		name            string
		admission, auth bool
	}{{"open", false, false}, {"admission", true, false}, {"auth", true, true}}
	const workers, perWorker = 8, 24 // each pass sends every (tenant, way) pair 8 times
	var sent, shed, mirrors atomic.Int64
	for p, pass := range passes {
		if pass.admission && !passes[p-1].admission {
			// The zero config's retry budget holds 10 tokens and earns 0.1 per
			// success: a pass of retries sheds most of them.
			gw.EnableAdmission(admission.Config{})
		}
		// Written between two servers' lifetimes: Close has waited for every
		// handler of the last pass.
		gw.RequireAuth = pass.auth
		gwSrv := httptest.NewServer(gw)
		agents := map[string]*NodeAgent{}
		for _, tn := range tenants {
			for source, id := range tn.ids {
				agents[source] = NewNodeAgent(tn.name, id, gwSrv.URL)
			}
		}
		var wg sync.WaitGroup
		for g := 0; g < workers; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < perWorker; i++ {
					// Neighbouring requests in time are another tenant's.
					n := i*workers + g
					tn, way := tenants[n%len(tenants)], ways[n/len(tenants)%len(ways)]
					m := tn.marker
					traceID := fmt.Sprintf("%s%04x%04x%08x", tn.traceHi, p+1, g+1, i+1)
					target, service, source := "/"+m+"/ok?q="+m, "web", "client-"+m
					headers := map[string]string{"X-Data": m, "Cookie": "c=" + m}
					if i%2 == 0 {
						// Half join a trace the tenant started; the rest
						// start a fresh one at the gateway.
						headers["Traceparent"] = "00-" + traceID + "-00f067aa0ba902b7-01"
					}
					if pass.admission && !pass.auth {
						headers[HeaderRetry] = "1"
					}
					wantStatus, wantBody := http.StatusOK, tn.name+"-v1|v1|"
					signed, sheddable := pass.auth, pass.admission
					switch way {
					case "lane":
						target = "/" + m + "/lane"
						headers["X-User-Group"] = "beta"
						headers["Cookie"] += "; lane=b"
						wantBody = tn.name + "-beta|beta|for-" + m
					case "mirrored":
						target = "/mirror/" + m + "?q=" + m
					case "upstream-5xx":
						target = "/" + m + "/fail"
						wantStatus = http.StatusInternalServerError
					case "missing-headers":
						service, signed, sheddable = "", false, false
						wantStatus, wantBody = http.StatusBadRequest, "canal: missing tenant/service headers\n"
					case "unknown-service":
						service, sheddable = "svc-"+m, false
						wantStatus = http.StatusServiceUnavailable
						wantBody = "canal: l7: 503 no route configuration for service " + tn.name + "/" + service + "\n"
					case "policy-denied":
						source = "intruder-" + m
						wantStatus, wantBody = http.StatusForbidden, "canal: l7: 403 denied by rule no-intruders\n"
					case "unsigned":
						if pass.auth {
							signed, sheddable = false, false
							wantStatus, wantBody = http.StatusForbidden, "canal: missing identity headers\n"
						}
					}
					body := strings.NewReader("body-" + m)
					var resp *http.Response
					var err error
					if signed {
						resp, err = agents[source].Do(http.MethodPost, service, target, body, headers)
					} else {
						var req *http.Request
						if req, err = http.NewRequest(http.MethodPost, gwSrv.URL+target, body); err != nil {
							t.Error(err)
							return
						}
						for k, v := range headers {
							req.Header.Set(k, v)
						}
						req.Header.Set(HeaderTenant, tn.name)
						if service != "" {
							req.Header.Set(HeaderService, service)
						}
						req.Header.Set(HeaderSource, source)
						resp, err = http.DefaultClient.Do(req)
					}
					if err != nil {
						t.Error(err)
						return
					}
					sent.Add(1)
					got, err := io.ReadAll(resp.Body)
					resp.Body.Close()
					if err != nil {
						t.Error(err)
						return
					}
					record(tn.name, fmt.Sprintf("%s-pass response to %s %s", pass.name, way, target),
						resp.Status+"\n"+headerLines(resp.Header)+"\n"+string(got))
					switch {
					case sheddable && resp.StatusCode == http.StatusTooManyRequests:
						shed.Add(1)
						if want := "canal: admission: " + tn.name + "/web shed ("; !strings.HasPrefix(string(got), want) {
							t.Errorf("%s pass, tenant %s %s %s: shed with %q, want %q...", pass.name, tn.name, way, target, got, want)
						}
					case resp.StatusCode != wantStatus:
						t.Errorf("%s pass, tenant %s %s %s: status %d, want %d", pass.name, tn.name, way, target, resp.StatusCode, wantStatus)
					case string(got) != wantBody:
						t.Errorf("%s pass, tenant %s %s %s: body %q, want %q", pass.name, tn.name, way, target, got, wantBody)
					case way == "mirrored":
						mirrors.Add(1)
					}
					switch got := resp.Header.Get(HeaderTrace); {
					case resp.StatusCode < 400 && got != "":
						t.Errorf("%s pass, tenant %s %s: %s = %q on a %d", pass.name, tn.name, way, HeaderTrace, got, resp.StatusCode)
					case resp.StatusCode >= 400 && headers["Traceparent"] != "" && got != traceID:
						t.Errorf("%s pass, tenant %s %s: %s = %q, want the trace it joined, %q", pass.name, tn.name, way, HeaderTrace, got, traceID)
					case resp.StatusCode >= 400 && got == "":
						t.Errorf("%s pass, tenant %s %s: no %s on a %d", pass.name, tn.name, way, HeaderTrace, resp.StatusCode)
					}
				}
			}()
		}
		wg.Wait()
		gwSrv.Close()
	}
	if shed.Load() == 0 {
		t.Error("no request was shed: the admission pass drove no shed")
	}
	// Mirrors run behind the replies; wait for every one the gateway sent.
	for deadline := time.Now().Add(5 * time.Second); mirrored.Load() < mirrors.Load() && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	if got, want := mirrored.Load(), mirrors.Load(); got != want {
		t.Errorf("%d of %d mirrored requests arrived", got, want)
	}

	// Each kind of violation is shown for its first few artifacts and then
	// counted, so a leak on a path every request takes prints no line per
	// request.
	const shown = 10
	violations := map[string]int{}
	violation := func(kind, format string, args ...any) {
		if violations[kind]++; violations[kind] <= shown {
			t.Errorf(format, args...)
		}
	}

	// Log entries and kept traces belong to the tenant they name, which must
	// be one of the three, and carry no trace ID another tenant sent.
	attribute := func(what, owner, traceID, text string) {
		if owner == "" {
			violation("artifacts with no tenant", "%s carries no tenant: %s", what, text)
			return
		}
		if byName[owner] == nil {
			violation("artifacts of an unknown tenant", "%s names tenant %q, not one of the gateway's: %s", what, owner, text)
			return
		}
		for _, other := range tenants {
			if other.name != owner && strings.HasPrefix(traceID, other.traceHi) {
				violation("artifacts with another tenant's trace", "%s of tenant %s carries trace %s, which tenant %s sent", what, owner, traceID, other.name)
			}
		}
		record(owner, what, text)
	}
	entries := gw.AccessLog().Entries()
	for _, e := range entries {
		attribute("access-log entry", e.Tenant, e.TraceID, fmt.Sprintf("%+v", e))
	}
	if n := int64(len(entries)); n != sent.Load() {
		t.Errorf("access log has %d entries, want one per request, %d", n, sent.Load())
	}
	for _, tr := range append(gw.Tracer().Kept(), gw.Tracer().Tail()...) {
		attribute("kept trace", tr.Tenant, tr.ID.String(), fmt.Sprintf("%s %s %+v", tr.Arch, tr.Name, tr.Spans))
	}

	for _, a := range artifacts {
		for _, other := range tenants {
			if other.name != a.owner && strings.Contains(a.text, other.marker) {
				violation("artifacts with another tenant's marker", "%s of tenant %s carries tenant %s's marker %q:\n%s", a.what, a.owner, other.name, other.marker, a.text)
			}
		}
	}
	for _, kind := range slices.Sorted(maps.Keys(violations)) {
		if n := violations[kind]; n > shown {
			t.Errorf("%d more %s", n-shown, kind)
		}
	}
	t.Logf("%d requests, %d shed, %d mirrored; %d artifacts checked", sent.Load(), shed.Load(), mirrors.Load(), len(artifacts))
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

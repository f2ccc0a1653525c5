package canal

import (
	"bytes"
	"encoding/base64"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// echoServer returns an httptest server that reports its name and the
// request path/subset.
func echoServer(name string) *httptest.Server {
	return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintf(w, "%s|%s|%s", name, r.URL.Path, r.Header.Get(HeaderSubset))
	}))
}

// testMesh wires a gateway with one tenant and one service with v1/v2
// subsets, returning the gateway server and an authenticated agent.
func testMesh(t *testing.T, cfg ServiceConfig, pools map[string][]string, requireAuth bool) (*httptest.Server, *NodeAgent, *GatewayServer) {
	t.Helper()
	gw := NewGatewayServer(1)
	gw.RequireAuth = requireAuth
	ca, err := NewCA("tenant1-ca")
	if err != nil {
		t.Fatal(err)
	}
	gw.RegisterTenant("tenant1", ca)
	if err := gw.ConfigureService("tenant1", cfg, pools); err != nil {
		t.Fatal(err)
	}
	gwSrv := httptest.NewServer(gw)
	t.Cleanup(gwSrv.Close)
	id, err := ca.IssueIdentity("spiffe://tenant1/ns/default/sa/client")
	if err != nil {
		t.Fatal(err)
	}
	agent := NewNodeAgent("tenant1", id, gwSrv.URL)
	return gwSrv, agent, gw
}

func readBody(t *testing.T, resp *http.Response) string {
	t.Helper()
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func TestGatewayRoutesToDefaultSubset(t *testing.T) {
	v1 := echoServer("v1")
	defer v1.Close()
	_, agent, _ := testMesh(t, ServiceConfig{Service: "web", DefaultSubset: "v1"},
		map[string][]string{"v1": {v1.URL}}, false)
	resp, err := agent.Get("web", "/hello")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 200 {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	body := readBody(t, resp)
	if body != "v1|/hello|v1" {
		t.Errorf("body = %q", body)
	}
}

func TestGatewayCanarySplitOverTCP(t *testing.T) {
	var v1n, v2n atomic.Int64
	v1 := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { v1n.Add(1) }))
	v2 := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { v2n.Add(1) }))
	defer v1.Close()
	defer v2.Close()
	cfg := ServiceConfig{
		Service: "web", DefaultSubset: "v1",
		Rules: []Rule{{
			Name:   "canary",
			Splits: []Split{{Subset: "v1", Weight: 80}, {Subset: "v2", Weight: 20}},
		}},
	}
	_, agent, _ := testMesh(t, cfg, map[string][]string{"v1": {v1.URL}, "v2": {v2.URL}}, false)
	for i := 0; i < 300; i++ {
		resp, err := agent.Get("web", "/")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	frac := float64(v2n.Load()) / 300
	if frac < 0.10 || frac > 0.33 {
		t.Errorf("canary fraction = %.2f, want ~0.20", frac)
	}
	if v1n.Load()+v2n.Load() != 300 {
		t.Errorf("total = %d", v1n.Load()+v2n.Load())
	}
}

func TestGatewayHeaderRoutingAndRewrite(t *testing.T) {
	v1 := echoServer("v1")
	beta := echoServer("beta")
	defer v1.Close()
	defer beta.Close()
	cfg := ServiceConfig{
		Service: "web", DefaultSubset: "v1",
		Rules: []Rule{{
			Name:        "beta-users",
			Match:       RouteMatch{Headers: []KVMatch{{Name: "X-User-Group", Match: Exact("beta")}}},
			Splits:      []Split{{Subset: "beta", Weight: 1}},
			PathRewrite: "/v2/home",
		}},
	}
	_, agent, _ := testMesh(t, cfg, map[string][]string{"v1": {v1.URL}, "beta": {beta.URL}}, false)

	resp, err := agent.Do(http.MethodGet, "web", "/home", nil, map[string]string{"X-User-Group": "beta"})
	if err != nil {
		t.Fatal(err)
	}
	if body := readBody(t, resp); body != "beta|/v2/home|beta" {
		t.Errorf("beta body = %q", body)
	}
	resp2, err := agent.Get("web", "/home")
	if err != nil {
		t.Fatal(err)
	}
	if body := readBody(t, resp2); body != "v1|/home|v1" {
		t.Errorf("default body = %q", body)
	}
}

// TestGatewayHeaderRuleNameAnyCase is the regression test for the silent
// non-match: requests' headers are keyed by canonical name, so a rule (or a
// JSON config) written on "x-user-group" never matched X-User-Group. Both
// provisioning paths must route the lower-case rule to its subset, and
// ConfigureService must not rewrite the caller's rule.
func TestGatewayHeaderRuleNameAnyCase(t *testing.T) {
	v1 := echoServer("v1")
	beta := echoServer("beta")
	defer v1.Close()
	defer beta.Close()
	check := func(t *testing.T, agent *NodeAgent) {
		t.Helper()
		resp, err := agent.Do(http.MethodGet, "web", "/home", nil, map[string]string{"X-User-Group": "beta"})
		if err != nil {
			t.Fatal(err)
		}
		if body := readBody(t, resp); body != "beta|/home|beta" {
			t.Errorf("lower-case header rule did not route to its subset: body = %q", body)
		}
	}
	t.Run("ConfigureService", func(t *testing.T) {
		cfg := ServiceConfig{
			Service: "web", DefaultSubset: "v1",
			Rules: []Rule{{
				Name:   "beta-users",
				Match:  RouteMatch{Headers: []KVMatch{{Name: "x-user-group", Match: Exact("beta")}}},
				Splits: []Split{{Subset: "beta", Weight: 1}},
			}},
		}
		_, agent, _ := testMesh(t, cfg, map[string][]string{"v1": {v1.URL}, "beta": {beta.URL}}, false)
		check(t, agent)
		if name := cfg.Rules[0].Match.Headers[0].Name; name != "x-user-group" {
			t.Errorf("ConfigureService rewrote the caller's rule to %q", name)
		}
	})
	t.Run("LoadConfig", func(t *testing.T) {
		cfg, err := LoadConfig(strings.NewReader(`{"tenants": [{"name": "tenant1", "services": [{
			"name": "web", "default_subset": "v1",
			"rules": [{"name": "beta-users", "headers": {"x-user-group": "beta"}, "splits": {"beta": 1}}],
			"pools": {"v1": ["` + v1.URL + `"], "beta": ["` + beta.URL + `"]}}]}]}`))
		if err != nil {
			t.Fatal(err)
		}
		gw := NewGatewayServer(1)
		cas, err := cfg.Apply(gw)
		if err != nil {
			t.Fatal(err)
		}
		gwSrv := httptest.NewServer(gw)
		defer gwSrv.Close()
		id, err := cas["tenant1"].IssueIdentity("spiffe://tenant1/ns/default/sa/client")
		if err != nil {
			t.Fatal(err)
		}
		check(t, NewNodeAgent("tenant1", id, gwSrv.URL))
	})
}

func TestGatewayZeroTrustAuth(t *testing.T) {
	v1 := echoServer("v1")
	defer v1.Close()
	gwSrv, agent, _ := testMesh(t, ServiceConfig{Service: "web", DefaultSubset: "v1"},
		map[string][]string{"v1": {v1.URL}}, true)

	// Signed request passes.
	resp, err := agent.Get("web", "/secure")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 200 {
		t.Fatalf("signed request status = %d", resp.StatusCode)
	}
	resp.Body.Close()

	// Unsigned request is rejected.
	req, _ := http.NewRequest(http.MethodGet, gwSrv.URL+"/secure", nil)
	req.Header.Set(HeaderTenant, "tenant1")
	req.Header.Set(HeaderService, "web")
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusForbidden {
		t.Errorf("unsigned request status = %d, want 403", resp2.StatusCode)
	}
}

func TestGatewayRejectsForeignIdentity(t *testing.T) {
	v1 := echoServer("v1")
	defer v1.Close()
	gwSrv, _, _ := testMesh(t, ServiceConfig{Service: "web", DefaultSubset: "v1"},
		map[string][]string{"v1": {v1.URL}}, true)

	// An identity from a different CA must be rejected even with a valid
	// signature structure.
	foreignCA, err := NewCA("attacker-ca")
	if err != nil {
		t.Fatal(err)
	}
	foreignID, err := foreignCA.IssueIdentity("spiffe://tenant1/sa/evil")
	if err != nil {
		t.Fatal(err)
	}
	agent := NewNodeAgent("tenant1", foreignID, gwSrv.URL)
	resp, err := agent.Get("web", "/secure")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusForbidden {
		t.Errorf("foreign identity status = %d, want 403", resp.StatusCode)
	}
}

func TestGatewayRejectsStaleTimestamp(t *testing.T) {
	v1 := echoServer("v1")
	defer v1.Close()
	gwSrv, agent, _ := testMesh(t, ServiceConfig{Service: "web", DefaultSubset: "v1"},
		map[string][]string{"v1": {v1.URL}}, true)
	// Hand-craft a request with an expired timestamp but valid signature.
	ts := strconv.FormatInt(time.Now().Add(-time.Hour).Unix(), 10) //canal:allow simdeterminism deliberately stale real-clock timestamp exercises the skew rejection
	req, _ := http.NewRequest(http.MethodGet, gwSrv.URL+"/x", nil)
	req.Header.Set(HeaderTenant, "tenant1")
	req.Header.Set(HeaderService, "web")
	req.Header.Set(HeaderTimestamp, ts)
	req.Header.Set(HeaderCert, base64.StdEncoding.EncodeToString(agent.Identity.CertDER))
	payload := signingPayload("tenant1", "web", agent.Identity.ID, "GET", "/x", ts)
	sig, err := signASN1(agent.Identity, payload)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(HeaderSignature, base64.StdEncoding.EncodeToString(sig))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusForbidden {
		t.Errorf("stale request status = %d, want 403 (replay window)", resp.StatusCode)
	}
}

func TestGatewayAuthzBySourceIdentity(t *testing.T) {
	v1 := echoServer("v1")
	defer v1.Close()
	cfg := ServiceConfig{
		Service: "pay", DefaultSubset: "v1",
		Authz: []AuthzRule{
			{Name: "allow-client", Action: AuthzAllow, SourceService: Exact("client")},
		},
	}
	gwSrv, agent, gw := testMesh(t, cfg, map[string][]string{"v1": {v1.URL}}, true)
	// The issued identity ends in /sa/client -> source "client": allowed.
	resp, err := agent.Get("pay", "/charge")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 200 {
		t.Fatalf("client status = %d", resp.StatusCode)
	}
	resp.Body.Close()
	// A different verified identity is denied.
	ca2 := gw.config.Load().tenants["tenant1"].ca
	intruder, err := ca2.IssueIdentity("spiffe://tenant1/ns/default/sa/intruder")
	if err != nil {
		t.Fatal(err)
	}
	agent2 := NewNodeAgent("tenant1", intruder, gwSrv.URL)
	resp2, err := agent2.Get("pay", "/charge")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusForbidden {
		t.Errorf("intruder status = %d, want 403", resp2.StatusCode)
	}
}

func TestGatewayThrottleLifecycle(t *testing.T) {
	v1 := echoServer("v1")
	defer v1.Close()
	_, agent, gw := testMesh(t, ServiceConfig{Service: "web", DefaultSubset: "v1"},
		map[string][]string{"v1": {v1.URL}}, false)
	if err := gw.SetServiceRate("tenant1", "web", 0.0001, 2); err != nil {
		t.Fatal(err)
	}
	codes := map[int]int{}
	for i := 0; i < 10; i++ {
		resp, err := agent.Get("web", "/")
		if err != nil {
			t.Fatal(err)
		}
		codes[resp.StatusCode]++
		resp.Body.Close()
	}
	if codes[http.StatusTooManyRequests] < 7 {
		t.Errorf("throttle should reject most requests: %v", codes)
	}
	gw.ClearServiceRate("tenant1", "web")
	resp, err := agent.Get("web", "/")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Errorf("after clearing, status = %d", resp.StatusCode)
	}
}

func TestGatewayTenantIsolation(t *testing.T) {
	// Two tenants each with a service named "web": requests are routed to
	// their own tenant's upstreams.
	gw := NewGatewayServer(1)
	gwSrv := httptest.NewServer(gw)
	defer gwSrv.Close()
	var agents []*NodeAgent
	var servers []*httptest.Server
	for i, tenant := range []string{"t1", "t2"} {
		srv := echoServer(tenant + "-backend")
		servers = append(servers, srv)
		ca, err := NewCA(tenant + "-ca")
		if err != nil {
			t.Fatal(err)
		}
		gw.RegisterTenant(tenant, ca)
		if err := gw.ConfigureService(tenant, ServiceConfig{Service: "web", DefaultSubset: "v1"},
			map[string][]string{"v1": {srv.URL}}); err != nil {
			t.Fatal(err)
		}
		id, err := ca.IssueIdentity(fmt.Sprintf("spiffe://%s/sa/app%d", tenant, i))
		if err != nil {
			t.Fatal(err)
		}
		agents = append(agents, NewNodeAgent(tenant, id, gwSrv.URL))
	}
	defer servers[0].Close()
	defer servers[1].Close()
	for i, tenant := range []string{"t1", "t2"} {
		resp, err := agents[i].Get("web", "/")
		if err != nil {
			t.Fatal(err)
		}
		body := readBody(t, resp)
		want := tenant + "-backend|/|v1"
		if body != want {
			t.Errorf("tenant %s got %q, want %q", tenant, body, want)
		}
	}
}

func TestGatewayMissingHeaders(t *testing.T) {
	gw := NewGatewayServer(1)
	srv := httptest.NewServer(gw)
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/x")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("status = %d, want 400", resp.StatusCode)
	}
}

func TestGatewayUnknownServiceAndPool(t *testing.T) {
	v1 := echoServer("v1")
	defer v1.Close()
	_, agent, _ := testMesh(t, ServiceConfig{Service: "web", DefaultSubset: "missing-pool"},
		map[string][]string{"v1": {v1.URL}}, false)
	// Unknown service -> 503 from routing.
	resp, err := agent.Get("ghost", "/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("unknown service status = %d", resp.StatusCode)
	}
	// Known service, but the default subset has no upstreams -> 503.
	resp2, err := agent.Get("web", "/")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("empty pool status = %d", resp2.StatusCode)
	}
}

func TestGatewayAccessLogRecords(t *testing.T) {
	v1 := echoServer("v1")
	defer v1.Close()
	_, agent, gw := testMesh(t, ServiceConfig{Service: "web", DefaultSubset: "v1"},
		map[string][]string{"v1": {v1.URL}}, false)
	resp, err := agent.Get("web", "/logged")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	entries := gw.AccessLog().Entries()
	if len(entries) == 0 {
		t.Fatal("no access log entries")
	}
	e := entries[len(entries)-1]
	if e.Path != "/logged" || e.Tenant != "tenant1" || e.Status != 200 {
		t.Errorf("entry = %+v", e)
	}
}

func TestGatewayBadUpstreamURL(t *testing.T) {
	gw := NewGatewayServer(1)
	err := gw.ConfigureService("t1", ServiceConfig{Service: "web", DefaultSubset: "v1"},
		map[string][]string{"v1": {"://bad"}})
	if err == nil {
		t.Error("bad upstream URL should fail configuration")
	}
}

func TestGatewayRoundRobinAcrossPool(t *testing.T) {
	var an, bn atomic.Int64
	a := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { an.Add(1) }))
	b := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { bn.Add(1) }))
	defer a.Close()
	defer b.Close()
	cfg, pools := ServiceConfig{Service: "web", DefaultSubset: "v1"}, map[string][]string{"v1": {a.URL, b.URL}}
	_, agent, gw := testMesh(t, cfg, pools, false)
	get := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			resp, err := agent.Get("web", "/")
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
		}
	}
	get(10)
	if an.Load() != 5 || bn.Load() != 5 {
		t.Errorf("round robin uneven: a=%d b=%d", an.Load(), bn.Load())
	}
	// The rotation carries on across a reconfiguration of the same subset:
	// the odd request before it and the one after go to different members.
	get(1)
	if err := gw.ConfigureService("tenant1", cfg, pools); err != nil {
		t.Fatal(err)
	}
	get(1)
	if an.Load() != 6 || bn.Load() != 6 {
		t.Errorf("round robin restarted by reconfiguration: a=%d b=%d", an.Load(), bn.Load())
	}
}

func TestGatewayHeaderMutation(t *testing.T) {
	var gotInject, gotSecret string
	upstream := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		gotInject = r.Header.Get("X-Injected")
		gotSecret = r.Header.Get("X-Client-Secret")
	}))
	defer upstream.Close()
	cfg := ServiceConfig{
		Service: "web", DefaultSubset: "v1",
		Rules: []Rule{{
			Name:          "mutate",
			SetHeaders:    map[string]string{"X-Injected": "by-gateway"},
			RemoveHeaders: []string{"X-Client-Secret"},
		}},
	}
	_, agent, _ := testMesh(t, cfg, map[string][]string{"v1": {upstream.URL}}, false)
	resp, err := agent.Do(http.MethodGet, "web", "/", nil, map[string]string{"X-Client-Secret": "leak-me"})
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if gotInject != "by-gateway" {
		t.Errorf("X-Injected = %q, want set by gateway", gotInject)
	}
	if gotSecret != "" {
		t.Errorf("X-Client-Secret = %q, want stripped", gotSecret)
	}
}

func TestGatewayConcurrentLoad(t *testing.T) {
	v1 := echoServer("v1")
	defer v1.Close()
	cfg := ServiceConfig{
		Service: "web", DefaultSubset: "v1",
		Rules: []Rule{{
			Name:   "split",
			Splits: []Split{{Subset: "v1", Weight: 1}},
		}},
	}
	_, agent, gw := testMesh(t, cfg, map[string][]string{"v1": {v1.URL}}, true)
	var wg sync.WaitGroup
	var okCount atomic.Int64
	for c := 0; c < 16; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				resp, err := agent.Get("web", "/load")
				if err != nil {
					t.Error(err)
					return
				}
				if resp.StatusCode == 200 {
					okCount.Add(1)
				}
				resp.Body.Close()
			}
		}()
	}
	// Concurrent reconfiguration while traffic flows.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			if err := gw.ConfigureService("tenant1", cfg, map[string][]string{"v1": {v1.URL}}); err != nil {
				t.Error(err)
			}
			_ = gw.SetServiceRate("tenant1", "web", 1e9, 1e9)
			gw.ClearServiceRate("tenant1", "web")
		}
	}()
	wg.Wait()
	if okCount.Load() != 16*25 {
		t.Errorf("ok = %d of %d under concurrent load+reconfig", okCount.Load(), 16*25)
	}
}

// TestGatewayThrottleUnderConcurrentLoad uses the §6.2 intervention while it
// is being changed: eight clients on a service with a service limit, a
// rate-limited rule and a split, beside an operator that reconfigures the
// service and sets and clears its throttle. Run under -race; every request is
// answered 200 or 429.
func TestGatewayThrottleUnderConcurrentLoad(t *testing.T) {
	v1, v2 := echoServer("v1"), echoServer("v2")
	defer v1.Close()
	defer v2.Close()
	cfg := ServiceConfig{
		Service: "web", DefaultSubset: "v1",
		ServiceRateLimit: &RateLimitSpec{RPS: 1e6, Burst: 50},
		Rules: []Rule{{
			Name:      "limited",
			Match:     RouteMatch{Path: Prefix("/")},
			RateLimit: &RateLimitSpec{RPS: 1e6, Burst: 50},
			Splits:    []Split{{Subset: "v1", Weight: 50}, {Subset: "v2", Weight: 50}},
		}},
	}
	pools := map[string][]string{"v1": {v1.URL}, "v2": {v2.URL}}
	_, agent, gw := testMesh(t, cfg, pools, false)
	stop := make(chan struct{})
	var operator, clients sync.WaitGroup
	operator.Add(1)
	go func() {
		defer operator.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := gw.ConfigureService("tenant1", cfg, pools); err != nil {
				t.Error(err)
				return
			}
			if err := gw.SetServiceRate("tenant1", "web", 1e6, 50); err != nil {
				t.Error(err)
				return
			}
			gw.ClearServiceRate("tenant1", "web")
		}
	}()
	for c := 0; c < 8; c++ {
		clients.Add(1)
		go func() {
			defer clients.Done()
			for i := 0; i < 50; i++ {
				resp, err := agent.Get("web", "/load")
				if err != nil {
					t.Error(err)
					return
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusTooManyRequests {
					t.Errorf("status = %d, want 200 or 429", resp.StatusCode)
				}
			}
		}()
	}
	clients.Wait()
	close(stop)
	operator.Wait()
}

// TestGatewayEarlyReplyKeepsRequestBody pins full-duplex proxying: an
// upstream that starts replying before it has read the request body must
// still receive every byte of it, and the client every byte of the reply.
// Without EnableFullDuplex the HTTP/1 server closes the inbound body when
// the reply header is written, the outbound transport's next body read
// fails, the upstream connection is dropped mid-reply and the client sees
// the reply cut short (about 1 in 20 with these sizes).
func TestGatewayEarlyReplyKeepsRequestBody(t *testing.T) {
	const bodyLen, replyLen, iterations = 1 << 20, 64 << 10, 200
	reply := make([]byte, replyLen)
	received := make(chan int64, 1)
	upstream := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if err := http.NewResponseController(w).EnableFullDuplex(); err != nil {
			t.Error(err)
		}
		var first [1]byte
		n, _ := io.ReadFull(r.Body, first[:])
		w.Write(reply)
		w.(http.Flusher).Flush()
		rest, _ := io.Copy(io.Discard, r.Body)
		received <- int64(n) + rest
	}))
	defer upstream.Close()
	_, agent, _ := testMesh(t, ServiceConfig{Service: "web", DefaultSubset: "v1"},
		map[string][]string{"v1": {upstream.URL}}, false)
	body := make([]byte, bodyLen)
	for i := 0; i < iterations; i++ {
		resp, err := agent.Do(http.MethodPost, "web", "/upload", bytes.NewReader(body), nil)
		if err != nil {
			t.Fatalf("iteration %d: %v", i, err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("iteration %d: status %d", i, resp.StatusCode)
		}
		got, err := io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err != nil || got != replyLen {
			t.Errorf("iteration %d: read %d of %d reply bytes: %v", i, got, replyLen, err)
		}
		if n := <-received; n != bodyLen {
			t.Errorf("iteration %d: upstream received %d of %d request bytes", i, n, bodyLen)
		}
	}
}

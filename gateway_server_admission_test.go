package canal

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"canalmesh/internal/admission"
)

// TestGatewayAdmissionShedsOverConcurrencyLimit pins the gateway-wide limit
// at 2 slots, parks two requests on a blocking upstream, and checks that a
// third is refused with a typed 429 and a Retry-After hint while the parked
// pair still completes.
func TestGatewayAdmissionShedsOverConcurrencyLimit(t *testing.T) {
	arrived := make(chan struct{}, 2)
	unblock := make(chan struct{})
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		arrived <- struct{}{}
		<-unblock
	}))
	defer slow.Close()

	_, agent, gw := testMesh(t, ServiceConfig{Service: "web", DefaultSubset: "v1"},
		map[string][]string{"v1": {slow.URL}}, false)
	gw.EnableAdmission(admission.Config{
		Limiter: admission.LimiterConfig{InitialLimit: 2, MinLimit: 2, MaxLimit: 2},
	})
	if gw.AdmissionMetrics() == nil {
		t.Fatal("admission metrics should exist once enabled")
	}

	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := agent.Get("web", "/")
			if err != nil {
				t.Errorf("parked request: %v", err)
				return
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("parked request status = %d", resp.StatusCode)
			}
		}()
	}
	// Both slots held: the gateway is at its concurrency limit.
	<-arrived
	<-arrived

	resp, err := agent.Get("web", "/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("third request status = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 response missing Retry-After hint")
	}
	close(unblock)
	wg.Wait()

	if got := gw.AdmissionMetrics().ShedTotal(); got < 1 {
		t.Errorf("shed total = %v, want >= 1", got)
	}
}

// TestGatewayAdmissionRetryBudget sends a stream of retry-marked requests:
// the budget admits roughly its token capacity, then sheds the rest, while
// fresh (non-retry) traffic keeps flowing.
func TestGatewayAdmissionRetryBudget(t *testing.T) {
	fast := echoServer("v1")
	defer fast.Close()
	_, agent, gw := testMesh(t, ServiceConfig{Service: "web", DefaultSubset: "v1"},
		map[string][]string{"v1": {fast.URL}}, false)
	gw.EnableAdmission(admission.Config{})

	retryHeaders := map[string]string{HeaderRetry: "1"}
	var ok200, shed429 int
	for i := 0; i < 50; i++ {
		resp, err := agent.Do("GET", "web", "/", nil, retryHeaders)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		switch resp.StatusCode {
		case http.StatusOK:
			ok200++
		case http.StatusTooManyRequests:
			shed429++
		default:
			t.Fatalf("retry %d: status %d", i, resp.StatusCode)
		}
	}
	if ok200 == 0 {
		t.Fatal("every retry was shed; budget should start full")
	}
	if shed429 == 0 {
		t.Fatal("50 consecutive retries never exhausted the retry budget")
	}

	// A non-retry request is untouched by the retry budget.
	resp, err := agent.Get("web", "/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fresh request status = %d after retry budget exhausted", resp.StatusCode)
	}
}

// TestGatewayUnconfiguredRefusedBeforeAdmission pins the limit at one slot,
// parks a configured request on a blocking upstream, and sends requests for
// two tenants the gateway has never heard of. Each must get the 503 an
// unconfigured service gets when the gateway is idle, not a 429: the refusal
// comes before admission, so unknown names neither take a slot nor leave
// admission state or shed counts behind.
func TestGatewayUnconfiguredRefusedBeforeAdmission(t *testing.T) {
	arrived := make(chan struct{}, 1)
	unblock := make(chan struct{})
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		arrived <- struct{}{}
		<-unblock
	}))
	defer slow.Close()

	gwSrv, agent, gw := testMesh(t, ServiceConfig{Service: "web", DefaultSubset: "v1"},
		map[string][]string{"v1": {slow.URL}}, false)
	gw.EnableAdmission(admission.Config{
		Limiter: admission.LimiterConfig{InitialLimit: 1, MinLimit: 1, MaxLimit: 1},
	})

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		resp, err := agent.Get("web", "/")
		if err != nil {
			t.Errorf("parked request: %v", err)
			return
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("parked request status = %d", resp.StatusCode)
		}
	}()
	<-arrived

	for _, tenant := range []string{"ghost-a", "ghost-b"} {
		req, err := http.NewRequest("GET", gwSrv.URL+"/", nil)
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set(HeaderTenant, tenant)
		req.Header.Set(HeaderService, "web")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body := readBody(t, resp)
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Errorf("tenant %s: status = %d (%q), want 503", tenant, resp.StatusCode, body)
		}
		if want := "no route configuration for service " + tenant + "/web"; !strings.Contains(body, want) {
			t.Errorf("tenant %s: body = %q, want it to name %q", tenant, body, want)
		}
	}
	close(unblock)
	wg.Wait()

	if got := gw.AdmissionMetrics().ShedTotal(); got != 0 {
		t.Errorf("shed total = %v, want 0: unconfigured requests never reach admission", got)
	}
}

// TestGatewayFaultDelayEndsWhenClientLeaves: a request held by a fault delay
// whose client leaves must give back its handler and its admission slot at
// once, not when the delay ends. With one slot in all, a second request
// proves the slot is free.
func TestGatewayFaultDelayEndsWhenClientLeaves(t *testing.T) {
	up := echoServer("v1")
	defer up.Close()
	gw := NewGatewayServer(1)
	gw.EnableAdmission(admission.Config{
		Limiter: admission.LimiterConfig{InitialLimit: 1, MinLimit: 1, MaxLimit: 1},
	})
	if err := gw.ConfigureService("tenant1", ServiceConfig{Service: "web", DefaultSubset: "v1",
		Rules: []Rule{{Name: "slow", Match: RouteMatch{Headers: []KVMatch{{Name: "x-slow", Match: Exact("1")}}},
			Fault: &FaultSpec{DelayPercent: 100, Delay: 5 * time.Second}}}},
		map[string][]string{"v1": {up.URL}}); err != nil {
		t.Fatal(err)
	}
	entered, returned := make(chan struct{}, 1), make(chan struct{}, 1)
	gwSrv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		entered <- struct{}{}
		gw.ServeHTTP(w, r)
		returned <- struct{}{}
	}))
	defer gwSrv.Close()
	get := func(ctx context.Context, slow bool) (*http.Response, error) {
		req, _ := http.NewRequestWithContext(ctx, http.MethodGet, gwSrv.URL+"/", nil)
		req.Header.Set(HeaderTenant, "tenant1")
		req.Header.Set(HeaderService, "web")
		if slow {
			req.Header.Set("X-Slow", "1")
		}
		return http.DefaultClient.Do(req)
	}

	ctx, cancel := context.WithCancel(context.Background())
	answered := make(chan error, 1)
	go func() {
		resp, err := get(ctx, true)
		if err == nil {
			resp.Body.Close()
		}
		answered <- err
	}()
	<-entered
	time.Sleep(50 * time.Millisecond) // the request is inside its delay
	cancel()
	if err := <-answered; err == nil {
		t.Fatal("delayed request answered before its client left")
	}
	select {
	case <-returned:
	case <-time.After(time.Second):
		t.Fatal("handler still held 1 s after its client left mid-delay")
	}
	resp, err := get(context.Background(), false)
	if err != nil {
		t.Fatal(err)
	}
	if body := readBody(t, resp); resp.StatusCode != http.StatusOK {
		t.Errorf("request after the abandoned delay got %d %q, want 200: the admission slot was not given back", resp.StatusCode, body)
	}
	<-entered
	<-returned
}

package canal

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
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
		time.Sleep(150 * time.Millisecond) //canal:allow simdeterminism real upstream delay creates the live concurrency the limiter sheds
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

func TestGatewayMirrorForwardsBodyAndHeaders(t *testing.T) {
	type seen struct {
		method, path, subset, custom, body string
	}
	ch := make(chan seen, 1)
	shadow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		b, _ := io.ReadAll(r.Body)
		ch <- seen{r.Method, r.URL.Path, r.Header.Get(HeaderSubset), r.Header.Get("X-Custom"), string(b)}
	}))
	defer shadow.Close()
	primary := echoServer("v1")
	defer primary.Close()

	cfg := ServiceConfig{Service: "web", DefaultSubset: "v1",
		Rules: []Rule{{Name: "mirror", MirrorTo: "shadow"}}}
	_, agent, gw := testMesh(t, cfg,
		map[string][]string{"v1": {primary.URL}, "shadow": {shadow.URL}}, false)

	resp, err := agent.Do("POST", "web", "/orders", bytes.NewReader([]byte("payload-123")),
		map[string]string{"X-Custom": "abc"})
	if err != nil {
		t.Fatal(err)
	}
	if got := readBody(t, resp); !strings.HasPrefix(got, "v1|/orders") {
		t.Errorf("primary response = %q: body must reach the primary intact after mirror buffering", got)
	}

	select {
	case s := <-ch:
		if s.method != "POST" || s.path != "/orders" {
			t.Errorf("mirror got %s %s", s.method, s.path)
		}
		if s.subset != "shadow" {
			t.Errorf("mirror subset header = %q, want shadow", s.subset)
		}
		if s.custom != "abc" {
			t.Errorf("mirror custom header = %q: headers must be forwarded", s.custom)
		}
		if s.body != "payload-123" {
			t.Errorf("mirror body = %q: body must be forwarded", s.body)
		}
	case <-time.After(3 * time.Second): //canal:allow simdeterminism real-time wait for the async live mirror goroutine
		t.Fatal("mirror request never arrived")
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
	gw.mirrorClient = &http.Client{Timeout: 500 * time.Millisecond}

	resp, err := agent.Get("web", "/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("primary status = %d: mirror failure must not surface", resp.StatusCode)
	}
	deadline := time.Now().Add(3 * time.Second)                   //canal:allow simdeterminism real-time deadline polling the async live mirror failure counter
	for gw.MirrorFailures() == 0 && time.Now().Before(deadline) { //canal:allow simdeterminism real-time deadline polling the async live mirror failure counter
		time.Sleep(10 * time.Millisecond) //canal:allow simdeterminism real-time deadline polling the async live mirror failure counter
	}
	if n := gw.MirrorFailures(); n != 1 {
		t.Errorf("mirror failures = %v, want 1", n)
	}
}

package canal

import (
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

// TestPooledStateReleasedOnEveryPath drives each way out of ServeHTTP that
// does not end in a proxied reply — the ErrorHandler's 502, an authz 403, a
// throttle 429, a rule's upstream timeout — and checks that the request was
// logged exactly once and that every state the gateway ever created is back
// to its zero value: a state that was not recycled would still hold its
// request.
//
// The refused upstream is a transport that refuses every dial, not a closed
// port: the kernel may hand a closed port to the gateway's own test server,
// which would then proxy to itself.
func TestPooledStateReleasedOnEveryPath(t *testing.T) {
	refused := roundTripFunc(func(*http.Request) (*http.Response, error) {
		return nil, &net.OpError{Op: "dial", Net: "tcp", Err: os.NewSyscallError("connect", syscall.ECONNREFUSED)}
	})
	const unused = "http://upstream.test" // a pool the request never reaches
	unblock := make(chan struct{})
	hung := httptest.NewServer(http.HandlerFunc(func(http.ResponseWriter, *http.Request) { <-unblock }))
	defer hung.Close()
	defer close(unblock)

	cases := []struct {
		name   string
		cfg    ServiceConfig
		pool   string
		rt     http.RoundTripper // nil: the gateway's own transport
		source string
		want   int
	}{
		{name: "upstream refused", cfg: ServiceConfig{Service: "web", DefaultSubset: "v1"}, pool: unused, rt: refused, want: http.StatusBadGateway},
		{name: "authz deny", pool: unused, source: "intruder", want: http.StatusForbidden,
			cfg: ServiceConfig{Service: "web", DefaultSubset: "v1",
				Authz: []AuthzRule{{Name: "block-intruder", Action: AuthzDeny, SourceService: Exact("intruder")}}}},
		{name: "throttled", pool: unused, want: http.StatusTooManyRequests,
			cfg: ServiceConfig{Service: "web", DefaultSubset: "v1", ServiceRateLimit: &RateLimitSpec{RPS: 1e-9, Burst: 0.5}}},
		{name: "upstream timeout", pool: hung.URL, want: http.StatusBadGateway,
			cfg: ServiceConfig{Service: "web", DefaultSubset: "v1", Rules: []Rule{{Name: "bounded", Timeout: 20 * time.Millisecond}}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			gw := NewGatewayServer(1)
			if tc.rt != nil {
				gw = newGatewayServer(1, tc.rt)
			}
			var mu sync.Mutex
			var created []*requestState
			newState := gw.states.New
			gw.states.New = func() any {
				st := newState().(*requestState)
				mu.Lock()
				created = append(created, st)
				mu.Unlock()
				return st
			}
			if err := gw.ConfigureService("tenant1", tc.cfg, map[string][]string{"v1": {tc.pool}}); err != nil {
				t.Fatal(err)
			}
			gwSrv, wait := awaitHandlers(t, gw)
			const requests = 3
			for i := 0; i < requests; i++ {
				req, _ := http.NewRequest(http.MethodGet, gwSrv.URL+"/x", nil)
				req.Header.Set(HeaderTenant, "tenant1")
				req.Header.Set(HeaderService, "web")
				req.Header.Set(HeaderSource, tc.source)
				req.Header.Set("Cookie", "lane=b")
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					t.Fatal(err)
				}
				readBody(t, resp)
				if resp.StatusCode != tc.want {
					t.Fatalf("status = %d, want %d", resp.StatusCode, tc.want)
				}
			}
			wait()

			entries := gw.AccessLog().Entries()
			if len(entries) != requests {
				t.Errorf("%d access-log entries for %d requests: %+v", len(entries), requests, entries)
			}
			for _, e := range entries {
				if e.Status != tc.want || e.Path != "/x" || e.Tenant != "tenant1" {
					t.Errorf("entry = %+v, want status %d for tenant1 /x", e, tc.want)
				}
			}
			mu.Lock()
			defer mu.Unlock()
			if len(created) == 0 {
				t.Fatal("no request state was ever created")
			}
			clean := requestState{req: Request{Headers: map[string]string{}, Cookies: map[string]string{}}}
			for _, st := range created {
				if !reflect.DeepEqual(*st, clean) {
					t.Errorf("state not recycled clean: %+v", *st)
				}
			}
		})
	}
}

// TestPooledStateDropsOversizedMaps sends one request with thousands of
// headers and cookies between ordinary ones. A map never shrinks, so the
// state that served it must go back to the pool with fresh maps, or every
// later request drawing that state would pay to clear the big one's buckets;
// ordinary requests keep their maps.
func TestPooledStateDropsOversizedMaps(t *testing.T) {
	up := httptest.NewServer(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {}))
	defer up.Close()
	gw := NewGatewayServer(1)
	if err := gw.ConfigureService("tenant1", ServiceConfig{Service: "web", DefaultSubset: "v1"},
		map[string][]string{"v1": {up.URL}}); err != nil {
		t.Fatal(err)
	}
	// ServeHTTP is called on this goroutine, so the hook needs no lock. Under
	// -race sync.Pool drops some Puts, so which state serves which request is
	// not fixed; every state ever made is tracked by the maps it was made with.
	type stateMaps struct{ headers, cookies uintptr }
	mapsOf := func(st *requestState) stateMaps {
		return stateMaps{reflect.ValueOf(st.req.Headers).Pointer(), reflect.ValueOf(st.req.Cookies).Pointer()}
	}
	made := make(map[*requestState]stateMaps)
	newState := gw.states.New
	gw.states.New = func() any {
		st := newState().(*requestState)
		made[st] = mapsOf(st)
		return st
	}
	serve := func(extra int) {
		t.Helper()
		r := httptest.NewRequest(http.MethodGet, "/x", nil)
		r.Header.Set(HeaderTenant, "tenant1")
		r.Header.Set(HeaderService, "web")
		var cookies strings.Builder
		for i := 0; i < extra; i++ {
			r.Header.Set(fmt.Sprintf("X-Bulk-%d", i), "v")
			fmt.Fprintf(&cookies, "c%d=v; ", i)
		}
		r.Header.Set("Cookie", cookies.String()+"lane=b")
		w := httptest.NewRecorder()
		gw.ServeHTTP(w, r)
		if w.Code != http.StatusOK {
			t.Fatalf("status = %d with %d extra headers: %s", w.Code, extra, w.Body)
		}
	}
	replaced := func() int {
		t.Helper()
		n := 0
		for st, was := range made {
			if len(st.req.Headers) != 0 || len(st.req.Cookies) != 0 {
				t.Errorf("state not recycled clean: %+v", *st)
			}
			now := mapsOf(st)
			if now.headers != was.headers {
				n++
			}
			if (now.headers != was.headers) != (now.cookies != was.cookies) {
				t.Errorf("one of a state's two maps was replaced, want both or neither")
			}
		}
		return n
	}

	serve(maxKeptMapLen / 2)
	serve(maxKeptMapLen / 2)
	if n := replaced(); n != 0 {
		t.Fatalf("%d states got fresh maps after ordinary requests, want 0", n)
	}
	serve(2000)
	if n := replaced(); n != 1 {
		t.Fatalf("%d states got fresh maps after the oversized request, want 1", n)
	}
	serve(maxKeptMapLen / 2)
	if n := replaced(); n != 1 {
		t.Fatalf("%d states have fresh maps after one more ordinary request, want still 1", n)
	}
}

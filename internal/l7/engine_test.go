package l7

import (
	"errors"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func newTestEngine(t *testing.T, cfg ServiceConfig) *Engine {
	t.Helper()
	e := NewEngine(7)
	if err := e.Configure(cfg); err != nil {
		t.Fatal(err)
	}
	return e
}

func req(service, method, path string) *Request {
	return &Request{Tenant: "t1", Service: service, SourceService: "client", Method: method, Path: path}
}

func TestRouteUnknownService(t *testing.T) {
	e := NewEngine(1)
	_, err := e.Route(0, req("ghost", "GET", "/"))
	var de *DecisionError
	if !errors.As(err, &de) || de.Status != StatusUnavailable {
		t.Fatalf("err = %v, want 503 DecisionError", err)
	}
	if de.Error() == "" {
		t.Error("error string empty")
	}
}

func TestDefaultSubsetWhenNoRuleMatches(t *testing.T) {
	e := newTestEngine(t, ServiceConfig{
		Service:       "web",
		DefaultSubset: "v1",
		Rules: []Rule{{
			Name:   "only-api",
			Match:  RouteMatch{Path: Prefix("/api")},
			Splits: []Split{{Subset: "v2", Weight: 1}},
		}},
	})
	d, err := e.Route(0, req("web", "GET", "/home"))
	if err != nil {
		t.Fatal(err)
	}
	if d.Subset != "v1" || d.Rule != "" {
		t.Errorf("decision = %+v, want default subset v1", d)
	}
}

func TestFirstMatchWins(t *testing.T) {
	e := newTestEngine(t, ServiceConfig{
		Service:       "web",
		DefaultSubset: "v1",
		Rules: []Rule{
			{Name: "a", Match: RouteMatch{Path: Prefix("/x")}, Splits: []Split{{Subset: "A", Weight: 1}}},
			{Name: "b", Match: RouteMatch{Path: Prefix("/x/y")}, Splits: []Split{{Subset: "B", Weight: 1}}},
		},
	})
	d, err := e.Route(0, req("web", "GET", "/x/y/z"))
	if err != nil {
		t.Fatal(err)
	}
	if d.Rule != "a" || d.Subset != "A" {
		t.Errorf("decision = %+v, want rule a", d)
	}
}

func TestHeaderAndCookieRouting(t *testing.T) {
	e := newTestEngine(t, ServiceConfig{
		Service:       "web",
		DefaultSubset: "stable",
		Rules: []Rule{
			{
				Name: "beta-users",
				Match: RouteMatch{
					Headers: []KVMatch{{Name: "x-user-group", Match: Exact("beta")}},
					Cookies: []KVMatch{{Name: "session", Match: Present()}},
				},
				Splits: []Split{{Subset: "beta", Weight: 1}},
			},
		},
	})
	r := req("web", "GET", "/")
	r.Headers = map[string]string{"x-user-group": "beta"}
	r.Cookies = map[string]string{"session": "abc"}
	d, err := e.Route(0, r)
	if err != nil {
		t.Fatal(err)
	}
	if d.Subset != "beta" {
		t.Errorf("subset = %s, want beta", d.Subset)
	}
	// Missing cookie: falls to default.
	r2 := req("web", "GET", "/")
	r2.Headers = map[string]string{"x-user-group": "beta"}
	d2, _ := e.Route(0, r2)
	if d2.Subset != "stable" {
		t.Errorf("subset = %s, want stable", d2.Subset)
	}
}

func TestRegexAndMethodMatch(t *testing.T) {
	e := newTestEngine(t, ServiceConfig{
		Service:       "api",
		DefaultSubset: "v1",
		Rules: []Rule{{
			Name:   "writes",
			Match:  RouteMatch{Method: Regex("^(POST|PUT|DELETE)$"), Path: Regex(`^/v[0-9]+/items`)},
			Splits: []Split{{Subset: "writer", Weight: 1}},
		}},
	})
	if d, _ := e.Route(0, req("api", "POST", "/v2/items/7")); d.Subset != "writer" {
		t.Errorf("POST should hit writer, got %s", d.Subset)
	}
	if d, _ := e.Route(0, req("api", "GET", "/v2/items/7")); d.Subset != "v1" {
		t.Errorf("GET should hit default, got %s", d.Subset)
	}
}

func TestCanaryWeightedSplit(t *testing.T) {
	e := newTestEngine(t, ServiceConfig{
		Service:       "web",
		DefaultSubset: "v1",
		Rules: []Rule{{
			Name:   "canary",
			Match:  RouteMatch{},
			Splits: []Split{{Subset: "v1", Weight: 90}, {Subset: "v2", Weight: 10}},
		}},
	})
	const n = 20000
	hits := map[string]int{}
	for i := 0; i < n; i++ {
		d, err := e.Route(0, req("web", "GET", "/"))
		if err != nil {
			t.Fatal(err)
		}
		hits[d.Subset]++
	}
	frac := float64(hits["v2"]) / n
	if math.Abs(frac-0.10) > 0.02 {
		t.Errorf("canary fraction = %v, want ~0.10", frac)
	}
}

func TestRuleRateLimit(t *testing.T) {
	e := newTestEngine(t, ServiceConfig{
		Service:       "web",
		DefaultSubset: "v1",
		Rules: []Rule{{
			Name:      "limited",
			Match:     RouteMatch{Path: Prefix("/")},
			RateLimit: &RateLimitSpec{RPS: 10, Burst: 10},
		}},
	})
	admitted := 0
	for i := 0; i < 20; i++ {
		if _, err := e.Route(0, req("web", "GET", "/")); err == nil {
			admitted++
		}
	}
	if admitted != 10 {
		t.Errorf("admitted = %d, want 10 (burst)", admitted)
	}
	// After a second, the bucket refills.
	if _, err := e.Route(time.Second, req("web", "GET", "/")); err != nil {
		t.Errorf("request after refill should pass: %v", err)
	}
}

func TestServiceRateLimitAndThrottleLifecycle(t *testing.T) {
	e := newTestEngine(t, ServiceConfig{Service: "web", DefaultSubset: "v1"})
	// No limit initially.
	for i := 0; i < 100; i++ {
		if _, err := e.Route(0, req("web", "GET", "/")); err != nil {
			t.Fatal(err)
		}
	}
	// Gateway applies an emergency throttle.
	if err := e.SetServiceRate("web", 1, 1); err != nil {
		t.Fatal(err)
	}
	ok := 0
	for i := 0; i < 10; i++ {
		if _, err := e.Route(time.Second, req("web", "GET", "/")); err == nil {
			ok++
		}
	}
	if ok != 1 {
		t.Errorf("throttled admits = %d, want 1", ok)
	}
	e.ClearServiceRate("web")
	for i := 0; i < 10; i++ {
		if _, err := e.Route(time.Second, req("web", "GET", "/")); err != nil {
			t.Fatal("throttle should be lifted:", err)
		}
	}
	if err := e.SetServiceRate("ghost", 1, 1); err == nil {
		t.Error("throttling unknown service should error")
	}
}

func TestRateLimitedDecisionError(t *testing.T) {
	e := newTestEngine(t, ServiceConfig{
		Service: "web", DefaultSubset: "v1",
		ServiceRateLimit: &RateLimitSpec{RPS: 0, Burst: 1},
	})
	if _, err := e.Route(0, req("web", "GET", "/")); err != nil {
		t.Fatal(err)
	}
	_, err := e.Route(0, req("web", "GET", "/"))
	var de *DecisionError
	if !errors.As(err, &de) || de.Status != StatusTooManyRequests {
		t.Errorf("err = %v, want 429", err)
	}
}

func TestAuthzDenyWins(t *testing.T) {
	e := newTestEngine(t, ServiceConfig{
		Service: "pay", DefaultSubset: "v1",
		Authz: []AuthzRule{
			{Name: "deny-guest", Action: AuthzDeny, SourceService: Exact("guest")},
			{Name: "allow-all", Action: AuthzAllow},
		},
	})
	r := req("pay", "POST", "/charge")
	r.SourceService = "guest"
	_, err := e.Route(0, r)
	var de *DecisionError
	if !errors.As(err, &de) || de.Status != StatusForbidden {
		t.Fatalf("err = %v, want 403", err)
	}
	r.SourceService = "web"
	if _, err := e.Route(0, r); err != nil {
		t.Errorf("web should be allowed: %v", err)
	}
}

func TestPathRewriteRetryAndMirror(t *testing.T) {
	e := newTestEngine(t, ServiceConfig{
		Service: "web", DefaultSubset: "v1",
		Rules: []Rule{{
			Name:        "legacy",
			Match:       RouteMatch{Path: Prefix("/old")},
			PathRewrite: "/new",
			Retry:       RetryPolicy{Attempts: 3, PerTry: 50 * time.Millisecond},
			MirrorTo:    "shadow",
		}},
	})
	d, err := e.Route(0, req("web", "GET", "/old/thing"))
	if err != nil {
		t.Fatal(err)
	}
	if d.PathRewrite != "/new" || d.Retry.Attempts != 3 || d.MirrorTo != "shadow" {
		t.Errorf("decision = %+v", d)
	}
}

func TestConfigureValidation(t *testing.T) {
	e := NewEngine(1)
	if err := e.Configure(ServiceConfig{}); err == nil {
		t.Error("empty service name should fail")
	}
	if err := e.Configure(ServiceConfig{
		Service: "x",
		Rules:   []Rule{{Name: "bad", Splits: []Split{{Subset: "a", Weight: 0}}}},
	}); err == nil {
		t.Error("zero-weight splits should fail")
	}
	if err := e.Configure(ServiceConfig{
		Service: "x",
		Rules:   []Rule{{Name: "bad", Splits: []Split{{Subset: "a", Weight: -1}}}},
	}); err == nil {
		t.Error("negative weight should fail")
	}
}

func TestRemoveAndServices(t *testing.T) {
	e := NewEngine(1)
	for _, s := range []string{"b", "a", "c"} {
		if err := e.Configure(ServiceConfig{Service: s, DefaultSubset: "v1"}); err != nil {
			t.Fatal(err)
		}
	}
	got := e.Services()
	if len(got) != 3 || got[0] != "a" || got[2] != "c" {
		t.Errorf("Services = %v", got)
	}
	e.Remove("b")
	if _, ok := e.Config("b"); ok {
		t.Error("b should be removed")
	}
	if cfg, ok := e.Config("a"); !ok || cfg.Service != "a" {
		t.Error("a should remain")
	}
}

func TestNumRules(t *testing.T) {
	cfg := ServiceConfig{
		Service: "x",
		Rules:   []Rule{{Name: "r1"}, {Name: "r2"}},
		Authz:   []AuthzRule{{Name: "a1"}},
	}
	if got := cfg.NumRules(); got != 3 {
		t.Errorf("NumRules = %d, want 3", got)
	}
}

func TestTokenBucketRefill(t *testing.T) {
	b := NewTokenBucket(100, 10)
	for i := 0; i < 10; i++ {
		if !b.Allow(0) {
			t.Fatal("burst should admit 10")
		}
	}
	if b.Allow(0) {
		t.Error("bucket should be empty")
	}
	if !b.Allow(50 * time.Millisecond) { // +5 tokens
		t.Error("refill should admit")
	}
	if b.Rate() != 100 {
		t.Error("Rate getter")
	}
}

func TestTokenBucketNeverExceedsBurst(t *testing.T) {
	b := NewTokenBucket(1000, 5)
	if !b.AllowN(time.Hour, 5) {
		t.Error("full burst should be admittable after long idle")
	}
	if b.AllowN(time.Hour, 1) {
		t.Error("burst cap exceeded")
	}
}

func TestStringMatchKinds(t *testing.T) {
	tests := []struct {
		m    StringMatch
		v    string
		want bool
	}{
		{Any(), "", true},
		{Any(), "x", true},
		{Exact("a"), "a", true},
		{Exact("a"), "b", false},
		{Prefix("/api"), "/api/v1", true},
		{Prefix("/api"), "/web", false},
		{Regex("^a+$"), "aaa", true},
		{Regex("^a+$"), "ab", false},
		{Present(), "x", true},
		{Present(), "", false},
		{StringMatch{Op: 99}, "x", false},
	}
	for i, tc := range tests {
		if err := tc.m.Compile(); err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if got := tc.m.Matches(tc.v); got != tc.want {
			t.Errorf("case %d: Matches(%q) = %v, want %v", i, tc.v, got, tc.want)
		}
	}
	// Matches never compiles: until Compile has run, a regex matches nothing.
	if m := Regex("^a+$"); m.Matches("aaa") {
		t.Error("uncompiled regex matched")
	}
}

// TestRouteConcurrentRateLimits shares one service's limiters between
// goroutines, as the live gateway does: a service limit, a rate-limited rule
// and a split, routed from four goroutines while a fifth sets and clears the
// §6.2 throttle. Run under -race; every request is admitted or answered 429.
func TestRouteConcurrentRateLimits(t *testing.T) {
	e := newTestEngine(t, ServiceConfig{
		Service: "web", DefaultSubset: "v1",
		ServiceRateLimit: &RateLimitSpec{RPS: 1e6, Burst: 100},
		Rules: []Rule{{
			Name:      "limited",
			Match:     RouteMatch{Path: Prefix("/")},
			RateLimit: &RateLimitSpec{RPS: 1e6, Burst: 100},
			Splits:    []Split{{Subset: "v1", Weight: 50}, {Subset: "v2", Weight: 50}},
		}},
	})
	stop := make(chan struct{})
	var throttler, routers sync.WaitGroup
	throttler.Add(1)
	go func() {
		defer throttler.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := e.SetServiceRate("web", 1e6, 100); err != nil {
				t.Error(err)
				return
			}
			e.ClearServiceRate("web")
		}
	}()
	for g := 0; g < 4; g++ {
		routers.Add(1)
		go func() {
			defer routers.Done()
			for i := 0; i < 1000; i++ {
				d, err := e.Route(time.Duration(i)*time.Microsecond, req("web", "GET", "/"))
				var de *DecisionError
				switch {
				case err == nil:
					if d.Subset != "v1" && d.Subset != "v2" {
						t.Errorf("admitted to subset %q", d.Subset)
					}
				case !errors.As(err, &de) || de.Status != StatusTooManyRequests:
					t.Errorf("Route: %v, want nil or a 429", err)
				}
			}
		}()
	}
	routers.Wait()
	close(stop)
	throttler.Wait()
}

// TestConfigureBadRegexIsAnError: a pattern that does not compile, wherever
// a configuration can carry one, is Configure's error — never a panic — and
// what was installed before keeps routing.
func TestConfigureBadRegexIsAnError(t *testing.T) {
	e := newTestEngine(t, ServiceConfig{Service: "web", DefaultSubset: "stable"})
	bad := Regex("(")
	cases := []struct {
		name, want string
		cfg        ServiceConfig
	}{
		{"rule path", "rule r", ServiceConfig{Rules: []Rule{{Name: "r", Match: RouteMatch{Path: bad}}}}},
		{"rule header", "rule r", ServiceConfig{Rules: []Rule{{Name: "r", Match: RouteMatch{Headers: []KVMatch{{Name: "h", Match: bad}}}}}}},
		{"rule cookie", "rule r", ServiceConfig{Rules: []Rule{{Name: "r", Match: RouteMatch{Cookies: []KVMatch{{Name: "c", Match: bad}}}}}}},
		{"authz rule", "service web", ServiceConfig{Authz: []AuthzRule{{Name: "a", Action: AuthzDeny, Path: bad}}}},
	}
	for _, tc := range cases {
		tc.cfg.Service, tc.cfg.DefaultSubset = "web", "broken"
		err := e.Configure(tc.cfg)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Configure = %v, want an error naming %q", tc.name, err, tc.want)
		}
		if d, err := e.Route(0, req("web", "GET", "/")); err != nil || d.Subset != "stable" {
			t.Errorf("%s: after the failed Configure, Route = %+v, %v; want the installed configuration", tc.name, d, err)
		}
	}
}

// TestSameNamedRulesKeepTheirOwnLimits: per-rule state belongs to the rule,
// not to its name. Two limited rules that share a name drain their own
// buckets, and the unlimited one between them is never limited.
func TestSameNamedRulesKeepTheirOwnLimits(t *testing.T) {
	e := newTestEngine(t, ServiceConfig{
		Service: "web", DefaultSubset: "v1",
		Rules: []Rule{
			{Name: "r", Match: RouteMatch{Path: Prefix("/a")}, RateLimit: &RateLimitSpec{Burst: 2}},
			{Name: "r", Match: RouteMatch{Path: Prefix("/b")}},
			{Name: "r", Match: RouteMatch{Path: Prefix("/c")}, RateLimit: &RateLimitSpec{Burst: 3}},
		},
	})
	for _, tc := range []struct {
		path string
		want int
	}{{"/a", 2}, {"/b", 10}, {"/c", 3}} {
		admitted := 0
		for i := 0; i < 10; i++ {
			if _, err := e.Route(0, req("web", "GET", tc.path)); err == nil {
				admitted++
			}
		}
		if admitted != tc.want {
			t.Errorf("%s: admitted %d of 10, want %d", tc.path, admitted, tc.want)
		}
	}
}

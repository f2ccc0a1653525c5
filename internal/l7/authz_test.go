package l7

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"
)

// authorize is the reference oracle the compiled engine is compared
// against: a linear scan with Istio-like semantics. Any matching deny
// rejects; otherwise, if no allow rules exist the request is admitted; if
// allow rules exist, at least one must match.
func authorize(rules []AuthzRule, r *Request) (bool, string) {
	matches := func(a *AuthzRule) bool {
		return a.SourceService.Matches(r.SourceService) &&
			a.Method.Matches(r.Method) &&
			a.Path.Matches(r.Path)
	}
	hasAllow, allowMatched := false, false
	for i := range rules {
		rule := &rules[i]
		if rule.Action == AuthzDeny {
			if matches(rule) {
				return false, "denied by rule " + rule.Name
			}
			continue
		}
		hasAllow = true
		allowMatched = allowMatched || matches(rule)
	}
	if !hasAllow || allowMatched {
		return true, ""
	}
	return false, "no allow rule matched"
}

// routeAuthz installs rules on a fresh engine and returns Route's
// authorization outcome for r in the oracle's (allowed, reason) shape.
func routeAuthz(t *testing.T, rules []AuthzRule, r *Request) (bool, string) {
	t.Helper()
	e := NewEngine(1)
	if err := e.Configure(ServiceConfig{Service: r.Service, DefaultSubset: "v1", Authz: rules}); err != nil {
		t.Fatal(err)
	}
	d, err := e.Route(0, r)
	if err == nil {
		return true, ""
	}
	de, ok := err.(*DecisionError)
	if !ok || de.Status != StatusForbidden || de.Reason != d.DenyReason {
		t.Fatalf("Route rejected with %v (decision %+v), want a 403 carrying the deny reason", err, d)
	}
	return false, d.DenyReason
}

// TestAuthzSemantics pins the documented semantics rule by rule, through
// both the reference oracle and Engine.Route: deny beats a matching allow
// regardless of list order, no-allow-rules means admit, an unmatched allow
// list rejects with the standard reason, an unnamed deny yields the bare
// reason prefix, and wildcard (zero-value) and exact matchers interact
// purely through action semantics.
func TestAuthzSemantics(t *testing.T) {
	req := func(src, method, path string) *Request {
		return &Request{Service: "api", SourceService: src, Method: method, Path: path}
	}
	allowAllDenyBatch := []AuthzRule{
		{Name: "allow-all", Action: AuthzAllow}, // zero-value matchers: wildcard
		{Name: "deny-batch", Action: AuthzDeny, SourceService: Exact("batch")},
	}
	allowWebDenyWrites := []AuthzRule{
		{Name: "allow-web", Action: AuthzAllow, SourceService: Exact("web")},
		{Name: "deny-writes", Action: AuthzDeny, Method: Exact("POST")},
	}
	cases := []struct {
		name   string
		rules  []AuthzRule
		r      *Request
		allow  bool
		reason string
	}{
		{name: "empty rule set admits", r: req("web", "GET", "/"), allow: true},
		{
			name: "allow after deny still loses",
			rules: []AuthzRule{
				{Name: "allow-web", Action: AuthzAllow, SourceService: Exact("web")},
				{Name: "deny-web-post", Action: AuthzDeny, SourceService: Exact("web"), Method: Exact("POST")},
			},
			r: req("web", "POST", "/"), allow: false, reason: "denied by rule deny-web-post",
		},
		{
			name: "first matching deny wins the reason",
			rules: []AuthzRule{
				{Name: "deny-a", Action: AuthzDeny, Path: Prefix("/admin")},
				{Name: "deny-b", Action: AuthzDeny, Path: Prefix("/admin/keys")},
			},
			r: req("web", "GET", "/admin/keys"), allow: false, reason: "denied by rule deny-a",
		},
		{
			name: "allow list admits a match",
			rules: []AuthzRule{
				{Name: "allow-web", Action: AuthzAllow, SourceService: Exact("web"), Method: Exact("GET")},
			},
			r: req("web", "GET", "/"), allow: true,
		},
		{
			name: "allow list rejects a non-matching source",
			rules: []AuthzRule{
				{Name: "allow-web", Action: AuthzAllow, SourceService: Exact("web")},
			},
			r: req("batch", "GET", "/"), allow: false, reason: "no allow rule matched",
		},
		{
			name: "allow list rejects a non-matching method",
			rules: []AuthzRule{
				{Name: "allow-web", Action: AuthzAllow, SourceService: Exact("web"), Method: Exact("GET")},
			},
			r: req("web", "POST", "/"), allow: false, reason: "no allow rule matched",
		},
		{
			name: "deny-only list admits non-matching traffic",
			rules: []AuthzRule{
				{Name: "deny-batch", Action: AuthzDeny, SourceService: Exact("batch")},
			},
			r: req("web", "GET", "/"), allow: true,
		},
		{
			name:  "unnamed deny yields the bare reason prefix",
			rules: []AuthzRule{{Action: AuthzDeny, SourceService: Exact("web")}},
			r:     req("web", "", ""), allow: false, reason: "denied by rule ",
		},
		{
			name:  "wildcard allow admits a source the exact deny does not name",
			rules: allowAllDenyBatch, r: req("web", "", ""), allow: true,
		},
		{
			name:  "exact deny beats the wildcard allow",
			rules: allowAllDenyBatch, r: req("batch", "", ""), allow: false, reason: "denied by rule deny-batch",
		},
		{
			name:  "exact allow admits traffic the wildcard deny does not match",
			rules: allowWebDenyWrites, r: req("web", "GET", ""), allow: true,
		},
		{
			name:  "wildcard deny beats the exact allow",
			rules: allowWebDenyWrites, r: req("web", "POST", ""), allow: false, reason: "denied by rule deny-writes",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if allow, reason := authorize(tc.rules, tc.r); allow != tc.allow || reason != tc.reason {
				t.Errorf("oracle = (%v, %q), want (%v, %q)", allow, reason, tc.allow, tc.reason)
			}
			if allow, reason := routeAuthz(t, tc.rules, tc.r); allow != tc.allow || reason != tc.reason {
				t.Errorf("Engine.Route = (%v, %q), want (%v, %q)", allow, reason, tc.allow, tc.reason)
			}
		})
	}
}

// seededAuthzCorpus builds a deterministic AuthzRule corpus mixing exact,
// prefix, regex, and wildcard matchers across both actions.
func seededAuthzCorpus(rng *rand.Rand, n int) []AuthzRule {
	rules := make([]AuthzRule, 0, n)
	for i := 0; i < n; i++ {
		rule := AuthzRule{Name: fmt.Sprintf("r%03d", i), Action: AuthzAllow}
		if rng.Intn(100) < 35 {
			rule.Action = AuthzDeny
		}
		switch rng.Intn(4) {
		case 0:
			rule.SourceService = Exact(fmt.Sprintf("svc-%d", rng.Intn(8)))
		case 1:
			rule.SourceService = Prefix(fmt.Sprintf("svc-%d", rng.Intn(3)))
		case 2:
			rule.SourceService = Regex(fmt.Sprintf("^svc-[0-%d]$", 1+rng.Intn(8)))
		}
		if rng.Intn(100) < 50 {
			rule.Method = Exact([]string{"GET", "POST", "DELETE"}[rng.Intn(3)])
		}
		if rng.Intn(100) < 60 {
			rule.Path = Prefix(fmt.Sprintf("/api/v%d", rng.Intn(4)))
		}
		rules = append(rules, rule)
	}
	return rules
}

// TestCompiledEngineMatchesAuthorize is the engine-vs-oracle equivalence
// check: for a seeded rule corpus installed through Configure, the compiled
// policy table behind Route must produce byte-identical authorization
// outcomes — verdict and deny reason — to the linear authorize scan over the
// same rules, across a seeded request sweep.
func TestCompiledEngineMatchesAuthorize(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	e := NewEngine(1)
	services := []string{"api", "billing", "search"}
	corpora := make(map[string][]AuthzRule, len(services))
	for _, svc := range services {
		corpus := seededAuthzCorpus(rng, 60)
		if err := e.Configure(ServiceConfig{Service: svc, DefaultSubset: "v1", Authz: corpus}); err != nil {
			t.Fatal(err)
		}
		// The oracle matches with its own compiled copy: Configure compiles
		// what it installs and leaves the caller's matchers as they were.
		corpora[svc] = slices.Clone(corpus)
		for i := range corpora[svc] {
			if err := corpora[svc][i].SourceService.Compile(); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := 0; i < 5000; i++ {
		r := &Request{
			Tenant:        fmt.Sprintf("t%d", rng.Intn(4)),
			Service:       services[rng.Intn(len(services))],
			SourceService: fmt.Sprintf("svc-%d", rng.Intn(10)),
			Method:        []string{"GET", "POST", "DELETE", "PUT"}[rng.Intn(4)],
			Path:          fmt.Sprintf("/api/v%d/x", rng.Intn(5)),
		}
		wantAllow, wantReason := authorize(corpora[r.Service], r)
		d, err := e.Route(time.Duration(i)*time.Millisecond, r)
		gotAllow := err == nil
		var gotReason string
		if !gotAllow {
			gotReason = d.DenyReason
			de, ok := err.(*DecisionError)
			if !ok {
				t.Fatalf("request %d: non-decision error %v", i, err)
			}
			if wantAllow || de.Status != StatusForbidden {
				// A deny expected by the oracle must be a 403; anything else
				// (rate limit etc.) would mean the corpora diverged.
				t.Fatalf("request %d: unexpected rejection %v (oracle allow=%v)", i, de, wantAllow)
			}
		}
		if gotAllow != wantAllow || gotReason != wantReason {
			t.Fatalf("request %d %+v: engine (%v, %q), authorize oracle (%v, %q)",
				i, r, gotAllow, gotReason, wantAllow, wantReason)
		}
	}
}

// TestReconfigureReplacesPolicyIntentions checks the incremental life cycle:
// reconfiguring a service swaps its intention set atomically, and Remove
// clears it, leaving the compiled table empty.
func TestReconfigureReplacesPolicyIntentions(t *testing.T) {
	e := NewEngine(1)
	cfg := ServiceConfig{Service: "api", DefaultSubset: "v1", Authz: []AuthzRule{
		{Name: "allow-web", Action: AuthzAllow, SourceService: Exact("web")},
	}}
	if err := e.Configure(cfg); err != nil {
		t.Fatal(err)
	}
	if n := e.Policy().Len(); n != 1 {
		t.Fatalf("policy table has %d intentions, want 1", n)
	}
	if _, err := e.Route(0, &Request{Service: "api", SourceService: "batch"}); err == nil {
		t.Fatal("unlisted source must be rejected")
	}

	cfg.Authz = []AuthzRule{
		{Name: "allow-batch", Action: AuthzAllow, SourceService: Exact("batch")},
		{Name: "deny-web", Action: AuthzDeny, SourceService: Exact("web")},
	}
	if err := e.Configure(cfg); err != nil {
		t.Fatal(err)
	}
	if n := e.Policy().Len(); n != 2 {
		t.Fatalf("policy table has %d intentions after reconfigure, want 2", n)
	}
	if _, err := e.Route(0, &Request{Service: "api", SourceService: "batch"}); err != nil {
		t.Fatalf("new allow must admit: %v", err)
	}
	d, err := e.Route(0, &Request{Service: "api", SourceService: "web"})
	if err == nil || d.DenyReason != "denied by rule deny-web" {
		t.Fatalf("new deny must apply: %v / %+v", err, d)
	}

	e.Remove("api")
	if n := e.Policy().Len(); n != 0 {
		t.Fatalf("policy table has %d intentions after Remove, want 0", n)
	}
}

package canal

import (
	"bytes"
	"fmt"
	"maps"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"slices"
	"strings"
	"testing"

	"canalmesh/internal/l7"
)

const sampleConfig = `{
  "tenants": [
    {
      "name": "acme",
      "services": [
        {
          "name": "web",
          "default_subset": "v1",
          "rules": [
            {
              "name": "canary",
              "path": "prefix:/",
              "splits": {"v1": 90, "v2": 10}
            },
            {
              "name": "legacy",
              "path": "exact:/old",
              "path_rewrite": "/new",
              "timeout_ms": 2000
            }
          ],
          "authz": [
            {"name": "allow-frontend", "action": "allow", "source": "frontend"}
          ],
          "pools": {"v1": ["http://127.0.0.1:1"], "v2": ["http://127.0.0.1:2"]}
        }
      ]
    }
  ]
}`

// admissionConfig is a minimal document with every admission knob set.
const admissionConfig = `{
  "admission": {
    "enabled": true,
    "min_limit": 4,
    "max_limit": 256,
    "tolerance": 3,
    "weights": {"acme": 2},
    "retry_budget_ratio": 0.2,
    "retry_after_ms": 100
  },
  "tenants": [
    {
      "name": "acme",
      "services": [
        {"name": "web", "default_subset": "v1", "pools": {"v1": ["http://127.0.0.1:1"]}}
      ]
    }
  ]
}`

func TestLoadConfigParses(t *testing.T) {
	cfg, err := LoadConfig(strings.NewReader(sampleConfig))
	if err != nil {
		t.Fatal(err)
	}
	if len(cfg.Tenants) != 1 || cfg.Tenants[0].Name != "acme" {
		t.Fatalf("tenants = %+v", cfg.Tenants)
	}
	svc := cfg.Tenants[0].Services[0]
	built, pools, err := svc.Build()
	if err != nil {
		t.Fatal(err)
	}
	if built.DefaultSubset != "v1" || len(built.Rules) != 2 || len(built.Authz) != 1 {
		t.Errorf("built = %+v", built)
	}
	if len(pools["v1"]) != 1 {
		t.Errorf("pools = %v", pools)
	}
	if built.Rules[1].PathRewrite != "/new" || built.Rules[1].Timeout.Milliseconds() != 2000 {
		t.Errorf("legacy rule = %+v", built.Rules[1])
	}
}

func TestLoadConfigValidation(t *testing.T) {
	cases := []struct {
		name string
		json string
	}{
		{"empty", `{}`},
		{"no tenant name", `{"tenants":[{"services":[]}]}`},
		{"no service name", `{"tenants":[{"name":"t","services":[{"default_subset":"v1","pools":{"v1":["http://x"]}}]}]}`},
		{"no default subset", `{"tenants":[{"name":"t","services":[{"name":"s","pools":{"v1":["http://x"]}}]}]}`},
		{"no pools", `{"tenants":[{"name":"t","services":[{"name":"s","default_subset":"v1"}]}]}`},
		{"unknown field", `{"tenants":[],"bogus":1}`},
		{"garbage", `{`},
		{"second object", `{"tenants":[{"name":"t"}]} {"tenants":[{"name":"u"}]}`},
		{"trailing garbage", `{"tenants":[{"name":"t"}]} xyz`},
		{"duplicate tenant", `{"tenants":[{"name":"t","services":[{"name":"s","default_subset":"v1","pools":{"v1":["http://x"]}}]},{"name":"t"}]}`},
		{"tenant name with separator", `{"tenants":[{"name":"a/b","services":[{"name":"s","default_subset":"v1","pools":{"v1":["http://x"]}}]}]}`},
		{"service-less tenant name with separator", `{"tenants":[{"name":"a/b"}]}`},
		{"duplicate service", `{"tenants":[{"name":"t","services":[{"name":"s","default_subset":"v1","pools":{"v1":["http://x"]}},{"name":"s","default_subset":"v2","pools":{"v2":["http://y"]}}]}]}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := LoadConfig(strings.NewReader(tc.json)); err == nil {
				t.Error("expected error")
			}
		})
	}
}

func TestParseMatchKinds(t *testing.T) {
	tests := []struct {
		in    string
		value string
		want  bool
	}{
		{"exact:/a", "/a", true},
		{"exact:/a", "/b", false},
		{"prefix:/api", "/api/v1", true},
		{"regex:^/v[0-9]+", "/v2/x", true},
		{"present:", "x", true},
		{"present:", "", false},
		{"any:", "anything", true},
		{"", "anything", true},
		{"/bare", "/bare", true}, // bare string = exact
	}
	for _, tc := range tests {
		m, err := parseMatch(tc.in)
		if err != nil {
			t.Fatalf("parseMatch(%q): %v", tc.in, err)
		}
		if got := m.Matches(tc.value); got != tc.want {
			t.Errorf("parseMatch(%q).Matches(%q) = %v, want %v", tc.in, tc.value, got, tc.want)
		}
	}
	if _, err := parseMatch("glob:*"); err == nil {
		t.Error("unknown kind should error")
	}
}

func TestBuildBadAuthzAction(t *testing.T) {
	s := ServiceFileEntry{
		Name: "s", DefaultSubset: "v1",
		Authz: []AuthzFileEntry{{Name: "x", Action: "permit"}},
		Pools: map[string][]string{"v1": {"http://x"}},
	}
	if _, _, err := s.Build(); err == nil {
		t.Error("bad authz action should error")
	}
}

func TestApplyProvisionsWorkingGateway(t *testing.T) {
	upstream := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(200)
	}))
	defer upstream.Close()
	// Point the config's pool at the live upstream.
	cfgJSON := strings.ReplaceAll(sampleConfig, "http://127.0.0.1:1", upstream.URL)
	cfg, err := LoadConfig(strings.NewReader(cfgJSON))
	if err != nil {
		t.Fatal(err)
	}
	gw := NewGatewayServer(1)
	gw.RequireAuth = true
	cas, err := cfg.Apply(gw)
	if err != nil {
		t.Fatal(err)
	}
	if cas["acme"] == nil {
		t.Fatal("tenant CA missing")
	}
	gwSrv := httptest.NewServer(gw)
	defer gwSrv.Close()
	// Only the allow-listed source identity gets through.
	id, err := cas["acme"].IssueIdentity("spiffe://acme/sa/frontend")
	if err != nil {
		t.Fatal(err)
	}
	resp, err := NewNodeAgent("acme", id, gwSrv.URL).Get("web", "/home")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Errorf("frontend status = %d", resp.StatusCode)
	}
	other, err := cas["acme"].IssueIdentity("spiffe://acme/sa/batch")
	if err != nil {
		t.Fatal(err)
	}
	resp2, err := NewNodeAgent("acme", other, gwSrv.URL).Get("web", "/home")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusForbidden {
		t.Errorf("batch status = %d, want 403", resp2.StatusCode)
	}
}

func TestLoadConfigFileMissing(t *testing.T) {
	if _, err := LoadConfigFile("/nonexistent/gateway.json"); err == nil {
		t.Error("missing file should error")
	}
}

func TestLoadConfigAdmissionBlock(t *testing.T) {
	cfg, err := LoadConfig(strings.NewReader(admissionConfig))
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Admission == nil || !cfg.Admission.Enabled {
		t.Fatalf("admission block = %+v", cfg.Admission)
	}
	built := cfg.Admission.Build()
	if built.Limiter.MinLimit != 4 || built.Limiter.MaxLimit != 256 || built.Limiter.Tolerance != 3 {
		t.Errorf("limiter knobs = %+v", built.Limiter)
	}
	if built.Weights["acme"] != 2 || built.RetryBudgetRatio != 0.2 || built.RetryAfter.Milliseconds() != 100 {
		t.Errorf("built = %+v", built)
	}

	gw := NewGatewayServer(1)
	if _, err := cfg.Apply(gw); err != nil {
		t.Fatal(err)
	}
	if gw.AdmissionMetrics() == nil {
		t.Error("Apply should enable admission when the block says enabled")
	}

	// Without the block (or with enabled=false) the layer stays off.
	plain, err := LoadConfig(strings.NewReader(sampleConfig))
	if err != nil {
		t.Fatal(err)
	}
	gw2 := NewGatewayServer(1)
	if _, err := plain.Apply(gw2); err != nil {
		t.Fatal(err)
	}
	if gw2.AdmissionMetrics() != nil {
		t.Error("admission enabled without a config block")
	}
}

// codelConfig sets the CoDel knobs the live gateway's admission layer never
// had: it keeps no queue, so a target or interval in a -config file would
// change nothing.
const codelConfig = `{"admission":{"enabled":true,"target_ms":5,"interval_ms":100},
  "tenants":[{"name":"acme","services":[{"name":"web","default_subset":"v1","pools":{"v1":["http://127.0.0.1:1"]}}]}]}`

// TestLoadConfigRefusesCoDelKnobs: a -config file that sets target_ms or
// interval_ms is refused with an error naming the field, not loaded and
// silently ignored.
func TestLoadConfigRefusesCoDelKnobs(t *testing.T) {
	for _, field := range []string{"target_ms", "interval_ms"} {
		doc := `{"admission":{"enabled":true,"` + field + `":5},
		  "tenants":[{"name":"acme","services":[{"name":"web","default_subset":"v1","pools":{"v1":["http://127.0.0.1:1"]}}]}]}`
		_, err := LoadConfig(strings.NewReader(doc))
		if err == nil || !strings.Contains(err.Error(), field) {
			t.Errorf("LoadConfig with %s = %v, want an error naming the field", field, err)
		}
	}
	if _, err := LoadConfig(strings.NewReader(codelConfig)); err == nil {
		t.Error("LoadConfig accepted codelConfig")
	}
}

// Two rule documents the gateway could load but not serve: an abort status
// http.Error panics on, and split weights whose sum wraps int negative, which
// rand.Intn panics on.
const (
	abortStatusConfig = `{"tenants":[{"name":"tenant1","services":[{"name":"web","default_subset":"v1",
  "rules":[{"name":"chaos","abort_percent":100,"abort_status":42}],"pools":{"v1":["http://127.0.0.1:1"]}}]}]}`
	splitOverflowConfig = `{"tenants":[{"name":"tenant1","services":[{"name":"web","default_subset":"v1",
  "rules":[{"name":"huge","splits":{"v1":5000000000000000000,"v2":5000000000000000000}}],
  "pools":{"v1":["http://127.0.0.1:1"],"v2":["http://127.0.0.1:2"]}}]}]}`
)

// TestUnservableRulesRefused: an abort status outside 400-599 and split
// weights whose sum overflows int are configuration errors, through
// ConfigureService and through LoadConfig+Apply alike, and the service
// already installed keeps routing.
func TestUnservableRulesRefused(t *testing.T) {
	upstream := httptest.NewServer(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {}))
	defer upstream.Close()
	_, agent, gw := testMesh(t, ServiceConfig{Service: "web", DefaultSubset: "v1"},
		map[string][]string{"v1": {upstream.URL}}, false)
	pools := map[string][]string{"v1": {upstream.URL}, "v2": {upstream.URL}}
	for _, tc := range []struct {
		name, rule, doc string
		cfg             ServiceConfig
	}{
		{"abort status", "chaos", abortStatusConfig, ServiceConfig{Service: "web", DefaultSubset: "v1", Rules: []Rule{{
			Name: "chaos", Fault: &FaultSpec{AbortPercent: 100, AbortStatus: 42},
		}}}},
		{"split overflow", "huge", splitOverflowConfig, ServiceConfig{Service: "web", DefaultSubset: "v1", Rules: []Rule{{
			Name: "huge", Splits: []Split{{Subset: "v1", Weight: 5e18}, {Subset: "v2", Weight: 5e18}},
		}}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if err := gw.ConfigureService("tenant1", tc.cfg, pools); err == nil || !strings.Contains(err.Error(), "rule "+tc.rule) {
				t.Errorf("ConfigureService = %v, want an error naming rule %s", err, tc.rule)
			}
			cfg, err := LoadConfig(strings.NewReader(tc.doc))
			if err != nil {
				t.Fatal(err)
			}
			_, err = cfg.Apply(gw)
			if err == nil || !strings.Contains(err.Error(), "tenant1/web") || !strings.Contains(err.Error(), "rule "+tc.rule) {
				t.Errorf("Apply = %v, want an error naming service tenant1/web and rule %s", err, tc.rule)
			}
			resp, err := agent.Get("web", "/")
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("status after the refused configuration = %d, want the installed service still routing", resp.StatusCode)
			}
		})
	}
}

// badRegexConfig carries a route rule whose path pattern does not compile.
const badRegexConfig = `{"tenants":[{"name":"acme","services":[{"name":"web","default_subset":"v1",
  "rules":[{"name":"broken","path":"regex:("}],"pools":{"v1":["http://127.0.0.1:1"]}}]}]}`

// TestLoadConfigBadRegexIsAnError: a pattern that does not compile in a
// canalgw -config file is a load error naming where it is, not a panic, and
// the gateway keeps what it had.
func TestLoadConfigBadRegexIsAnError(t *testing.T) {
	cfg, err := LoadConfig(strings.NewReader(badRegexConfig))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := cfg.Tenants[0].Services[0].Build(); err == nil {
		t.Error("Build accepted the pattern")
	}
	upstream := httptest.NewServer(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {}))
	defer upstream.Close()
	_, agent, gw := testMesh(t, ServiceConfig{Service: "web", DefaultSubset: "v1"},
		map[string][]string{"v1": {upstream.URL}}, false)
	cfg.Tenants[0].Name = "tenant1"
	_, err = cfg.Apply(gw)
	if err == nil || !strings.Contains(err.Error(), "tenant1/web") || !strings.Contains(err.Error(), "rule broken") {
		t.Errorf("Apply = %v, want an error naming service tenant1/web and rule broken", err)
	}
	resp, err := agent.Get("web", "/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("status after the failed Apply = %d, want the installed service still routing", resp.StatusCode)
	}
}

// FuzzLoadConfig feeds the -config loader arbitrary bytes: whatever LoadConfig
// accepts builds and applies to a fresh gateway without a panic (errors are
// fine), and building twice gives the same rule lists in the same order —
// what sortedKeys exists for. Then every rule is made reachable (see
// everyRuleReachable) and one request is routed per configured service
// through its l7.Service handle: routing never panics, and every refusal
// carries a status http.Error can write.
func FuzzLoadConfig(f *testing.F) {
	sample, err := os.ReadFile("testdata/gateway.json")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(sample)
	for _, doc := range []string{
		sampleConfig, admissionConfig, codelConfig, badRegexConfig, abortStatusConfig, splitOverflowConfig,
		`{"tenants":[{"name":"t","services":[{"name":"s","default_subset":"v1","rules":[{"name":"r","path":"glob:*"}],"pools":{"v1":["http://x"]}}]}]}`,
		`{"tenants":[{"name":"t","services":[{"name":"","default_subset":"v1","pools":{"v1":["http://x"]}}]}]}`,
		`{"tenants":[{"name":"t","services":[{"name":"s","default_subset":"v1","rules":[{"name":"r","rate_limit_rps":1,"headers":{"b":"1","a":"regex:^x"}},{"name":"r","splits":{"v2":1,"v1":3}}],"pools":{"v1":["http://x"],"v2":["::"]}}]}]}`,
		`{"tenants":[{"name":"t","services":[{"name":"s","default_subset":"v1","rules":[{"name":"r","path":"exact:/x","abort_percent":0.5,"abort_status":451,"splits":{"v1":1,"v2":2}}],"pools":{"v1":["http://x"],"v2":["http://y"]}}]}]}`,
	} {
		f.Add([]byte(doc))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		cfg, err := LoadConfig(bytes.NewReader(data))
		if err != nil {
			return
		}
		for _, tn := range cfg.Tenants {
			for _, s := range tn.Services {
				first, _, err1 := s.Build()
				second, _, err2 := s.Build()
				if (err1 == nil) != (err2 == nil) || !reflect.DeepEqual(first, second) {
					t.Fatalf("%s/%s: two builds differ: %+v (%v) vs %+v (%v)", tn.Name, s.Name, first, err1, second, err2)
				}
			}
		}
		_, _ = cfg.Apply(NewGatewayServer(1)) // an error is an answer; a panic fails the target

		gw := NewGatewayServer(1)
		_, _ = everyRuleReachable(cfg).Apply(gw) // what applied before an error is routed below
		config := gw.config.Load()
		for _, tenant := range slices.Sorted(maps.Keys(config.tenants)) {
			services := config.tenants[tenant].services
			for _, name := range slices.Sorted(maps.Keys(services)) {
				up := services[name]
				_, err := up.route.Route(0, &l7.Request{Tenant: tenant, Service: up.key, Method: http.MethodGet, Path: "/"})
				if status := l7.StatusOf(err); err != nil && (status < 400 || status > 599) {
					t.Fatalf("%s/%s: refused with status %d (%v), not an HTTP error status", tenant, name, status, err)
				}
			}
		}
	})
}

// everyRuleReachable rewrites a loaded configuration so that one request per
// service reaches every rule's fault and split: each rule becomes two
// services of its own, its matchers cleared so any request matches it — one
// with its fault made certain, one with the fault removed so the split is
// drawn.
func everyRuleReachable(cfg *FileConfig) *FileConfig {
	out := &FileConfig{}
	for _, tn := range cfg.Tenants {
		probe := TenantConfig{Name: tn.Name}
		for _, s := range tn.Services {
			for i, rule := range s.Rules {
				rule.PathMatch, rule.MethodMatch, rule.HeaderMatch, rule.CookieMatch = "", "", nil, nil
				faulted, split := s, s
				if rule.AbortPercent > 0 {
					rule.AbortPercent = 100
				}
				faulted.Name, faulted.Rules = fmt.Sprintf("%s#%d-fault", s.Name, i), []RuleFileEntry{rule}
				rule.AbortPercent = 0
				split.Name, split.Rules = fmt.Sprintf("%s#%d-split", s.Name, i), []RuleFileEntry{rule}
				probe.Services = append(probe.Services, faulted, split)
			}
		}
		out.Tenants = append(out.Tenants, probe)
	}
	return out
}

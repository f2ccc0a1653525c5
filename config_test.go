package canal

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"strings"
	"testing"
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
    "target_ms": 5,
    "interval_ms": 100,
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
	if built.Target.Milliseconds() != 5 || built.Interval.Milliseconds() != 100 {
		t.Errorf("codel knobs = %v/%v", built.Target, built.Interval)
	}
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
// what sortedKeys exists for.
func FuzzLoadConfig(f *testing.F) {
	sample, err := os.ReadFile("testdata/gateway.json")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(sample)
	for _, doc := range []string{
		sampleConfig, admissionConfig, badRegexConfig,
		`{"tenants":[{"name":"t","services":[{"name":"s","default_subset":"v1","rules":[{"name":"r","path":"glob:*"}],"pools":{"v1":["http://x"]}}]}]}`,
		`{"tenants":[{"name":"t","services":[{"name":"","default_subset":"v1","pools":{"v1":["http://x"]}}]}]}`,
		`{"tenants":[{"name":"t","services":[{"name":"s","default_subset":"v1","rules":[{"name":"r","rate_limit_rps":1,"headers":{"b":"1","a":"regex:^x"}},{"name":"r","splits":{"v2":1,"v1":3}}],"pools":{"v1":["http://x"],"v2":["::"]}}]}]}`,
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
	})
}

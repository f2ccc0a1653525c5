package canal

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"canalmesh/internal/admission"
	"canalmesh/internal/units"
)

// FileConfig is the JSON deployment configuration cmd/canalgw loads: the
// tenants the gateway serves, each with its services, routing rules, and
// upstream pools, plus optional gateway-wide admission control. See
// testdata/gateway.json for a complete example.
type FileConfig struct {
	Tenants   []TenantConfig       `json:"tenants"`
	Admission *AdmissionFileConfig `json:"admission,omitempty"`
}

// AdmissionFileConfig is the JSON form of the gateway's proactive
// overload-control layer (internal/admission). All numeric fields are
// optional; zeros take the package defaults.
type AdmissionFileConfig struct {
	Enabled bool `json:"enabled"`
	// Weights biases per-tenant fair shares (default weight 1).
	Weights map[string]float64 `json:"weights,omitempty"`
	// Limiter bounds for the adaptive AIMD concurrency limit.
	InitialLimit int     `json:"initial_limit,omitempty"`
	MinLimit     int     `json:"min_limit,omitempty"`
	MaxLimit     int     `json:"max_limit,omitempty"`
	Tolerance    float64 `json:"tolerance,omitempty"`
	// RetryBudgetRatio is the allowed ratio of retries to successes.
	RetryBudgetRatio float64 `json:"retry_budget_ratio,omitempty"`
	// RetryAfterMS is the hint returned with 429 rejections.
	RetryAfterMS float64 `json:"retry_after_ms,omitempty"`
}

// Build converts the file entry into an admission.Config.
func (a *AdmissionFileConfig) Build() admission.Config {
	return admission.Config{
		Weights: a.Weights,
		Limiter: admission.LimiterConfig{
			InitialLimit: a.InitialLimit,
			MinLimit:     a.MinLimit,
			MaxLimit:     a.MaxLimit,
			Tolerance:    a.Tolerance,
		},
		RetryBudgetRatio: a.RetryBudgetRatio,
		RetryAfter:       units.Scale(time.Millisecond, a.RetryAfterMS),
	}
}

// TenantConfig declares one tenant and its services.
type TenantConfig struct {
	Name     string             `json:"name"`
	Services []ServiceFileEntry `json:"services"`
}

// ServiceFileEntry declares one service: routing configuration plus the
// upstream pool per subset.
type ServiceFileEntry struct {
	Name          string              `json:"name"`
	DefaultSubset string              `json:"default_subset"`
	Rules         []RuleFileEntry     `json:"rules,omitempty"`
	Authz         []AuthzFileEntry    `json:"authz,omitempty"`
	RateLimitRPS  float64             `json:"rate_limit_rps,omitempty"`
	Pools         map[string][]string `json:"pools"`
}

// RuleFileEntry is the JSON form of one route rule. Matches are expressed
// as "kind:value" strings: "exact:/checkout", "prefix:/api", "regex:^/v[0-9]+",
// "present:" or "any:".
type RuleFileEntry struct {
	Name         string            `json:"name"`
	PathMatch    string            `json:"path,omitempty"`
	MethodMatch  string            `json:"method,omitempty"`
	HeaderMatch  map[string]string `json:"headers,omitempty"`
	CookieMatch  map[string]string `json:"cookies,omitempty"`
	Splits       map[string]int    `json:"splits,omitempty"`
	PathRewrite  string            `json:"path_rewrite,omitempty"`
	RateLimitRPS float64           `json:"rate_limit_rps,omitempty"`
	MirrorTo     string            `json:"mirror_to,omitempty"`
	TimeoutMS    int               `json:"timeout_ms,omitempty"`
	AbortPercent float64           `json:"abort_percent,omitempty"`
	AbortStatus  int               `json:"abort_status,omitempty"`
}

// AuthzFileEntry is the JSON form of one authorization rule.
type AuthzFileEntry struct {
	Name   string `json:"name"`
	Action string `json:"action"` // "allow" or "deny"
	Source string `json:"source,omitempty"`
	Method string `json:"method,omitempty"`
	Path   string `json:"path,omitempty"`
}

// LoadConfig reads a FileConfig from JSON.
func LoadConfig(r io.Reader) (*FileConfig, error) {
	var cfg FileConfig
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&cfg); err != nil {
		return nil, fmt.Errorf("canal: parsing config: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, fmt.Errorf("canal: parsing config: data after the config object")
	}
	if len(cfg.Tenants) == 0 {
		return nil, fmt.Errorf("canal: config declares no tenants")
	}
	tenants := make(map[string]bool, len(cfg.Tenants))
	for _, t := range cfg.Tenants {
		if t.Name == "" {
			return nil, fmt.Errorf("canal: tenant with empty name")
		}
		if tenants[t.Name] {
			return nil, fmt.Errorf("canal: tenant %s declared twice", t.Name)
		}
		// Refused here, not first at a service's configure: a tenant with
		// no services would otherwise be registered, CA and all.
		if err := checkTenant(t.Name); err != nil {
			return nil, err
		}
		tenants[t.Name] = true
		services := make(map[string]bool, len(t.Services))
		for _, s := range t.Services {
			if s.Name == "" {
				return nil, fmt.Errorf("canal: tenant %s: service with empty name", t.Name)
			}
			if services[s.Name] {
				return nil, fmt.Errorf("canal: service %s/%s declared twice", t.Name, s.Name)
			}
			services[s.Name] = true
			if s.DefaultSubset == "" {
				return nil, fmt.Errorf("canal: service %s/%s: default_subset required", t.Name, s.Name)
			}
			if len(s.Pools) == 0 {
				return nil, fmt.Errorf("canal: service %s/%s: pools required", t.Name, s.Name)
			}
		}
	}
	return &cfg, nil
}

// LoadConfigFile reads a FileConfig from a path.
func LoadConfigFile(path string) (*FileConfig, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return LoadConfig(f)
}

// parseMatch turns a "kind:value" string into a StringMatch. An empty
// string matches anything; a regex that does not compile is an error.
func parseMatch(s string) (StringMatch, error) {
	if s == "" {
		return Any(), nil
	}
	for i := 0; i < len(s); i++ {
		if s[i] != ':' {
			continue
		}
		kind, value := s[:i], s[i+1:]
		switch kind {
		case "exact":
			return Exact(value), nil
		case "prefix":
			return Prefix(value), nil
		case "regex":
			m := Regex(value)
			return m, m.Compile()
		case "present":
			return Present(), nil
		case "any":
			return Any(), nil
		default:
			return StringMatch{}, fmt.Errorf("canal: unknown match kind %q", kind)
		}
	}
	// Bare strings are exact matches, the common case.
	return Exact(s), nil
}

// sortedKeys returns a config map's keys in sorted order. Rule lists built
// from JSON maps must not inherit Go's randomized map iteration order, or
// two loads of the same file produce differently-ordered matchers and
// splits.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Build converts a service file entry into engine configuration.
func (s ServiceFileEntry) Build() (ServiceConfig, map[string][]string, error) {
	cfg := ServiceConfig{Service: s.Name, DefaultSubset: s.DefaultSubset}
	if s.RateLimitRPS > 0 {
		cfg.ServiceRateLimit = &RateLimitSpec{RPS: s.RateLimitRPS, Burst: s.RateLimitRPS}
	}
	for _, re := range s.Rules {
		rule := Rule{Name: re.Name, PathRewrite: re.PathRewrite, MirrorTo: re.MirrorTo}
		var err error
		if rule.Match.Path, err = parseMatch(re.PathMatch); err != nil {
			return cfg, nil, fmt.Errorf("rule %s: %w", re.Name, err)
		}
		if rule.Match.Method, err = parseMatch(re.MethodMatch); err != nil {
			return cfg, nil, fmt.Errorf("rule %s: %w", re.Name, err)
		}
		// Header/cookie matchers and traffic splits come from JSON maps;
		// iterate their keys sorted so the built rule — and therefore split
		// selection and match evaluation order — is identical on every load.
		for _, name := range sortedKeys(re.HeaderMatch) {
			sm, err := parseMatch(re.HeaderMatch[name])
			if err != nil {
				return cfg, nil, fmt.Errorf("rule %s header %s: %w", re.Name, name, err)
			}
			rule.Match.Headers = append(rule.Match.Headers, KVMatch{Name: name, Match: sm})
		}
		for _, name := range sortedKeys(re.CookieMatch) {
			sm, err := parseMatch(re.CookieMatch[name])
			if err != nil {
				return cfg, nil, fmt.Errorf("rule %s cookie %s: %w", re.Name, name, err)
			}
			rule.Match.Cookies = append(rule.Match.Cookies, KVMatch{Name: name, Match: sm})
		}
		for _, subset := range sortedKeys(re.Splits) {
			rule.Splits = append(rule.Splits, Split{Subset: subset, Weight: re.Splits[subset]})
		}
		if re.RateLimitRPS > 0 {
			rule.RateLimit = &RateLimitSpec{RPS: re.RateLimitRPS, Burst: re.RateLimitRPS}
		}
		if re.TimeoutMS > 0 {
			rule.Timeout = time.Duration(re.TimeoutMS) * time.Millisecond
		}
		if re.AbortPercent > 0 {
			rule.Fault = &FaultSpec{AbortPercent: re.AbortPercent, AbortStatus: re.AbortStatus}
		}
		cfg.Rules = append(cfg.Rules, rule)
	}
	for _, ae := range s.Authz {
		rule := AuthzRule{Name: ae.Name}
		switch ae.Action {
		case "allow":
			rule.Action = AuthzAllow
		case "deny":
			rule.Action = AuthzDeny
		default:
			return cfg, nil, fmt.Errorf("authz %s: action must be allow or deny, got %q", ae.Name, ae.Action)
		}
		var err error
		if rule.SourceService, err = parseMatch(ae.Source); err != nil {
			return cfg, nil, fmt.Errorf("authz %s: %w", ae.Name, err)
		}
		if rule.Method, err = parseMatch(ae.Method); err != nil {
			return cfg, nil, fmt.Errorf("authz %s: %w", ae.Name, err)
		}
		if rule.Path, err = parseMatch(ae.Path); err != nil {
			return cfg, nil, fmt.Errorf("authz %s: %w", ae.Name, err)
		}
		cfg.Authz = append(cfg.Authz, rule)
	}
	return cfg, s.Pools, nil
}

// Apply provisions a gateway from the file configuration: one CA per tenant
// (returned so operators can issue workload identities), every service's
// routing + pools, and the admission layer when the config enables it.
func (c *FileConfig) Apply(gw *GatewayServer) (map[string]*CA, error) {
	if c.Admission != nil && c.Admission.Enabled {
		gw.EnableAdmission(c.Admission.Build())
	}
	cas := make(map[string]*CA, len(c.Tenants))
	for _, t := range c.Tenants {
		ca, err := NewCA(t.Name + "-ca")
		if err != nil {
			return nil, err
		}
		if err := gw.RegisterTenant(t.Name, ca); err != nil {
			return nil, err
		}
		cas[t.Name] = ca
		for _, s := range t.Services {
			cfg, pools, err := s.Build()
			if err == nil {
				err = gw.ConfigureService(t.Name, cfg, pools)
			}
			if err != nil {
				return nil, fmt.Errorf("canal: service %s/%s: %w", t.Name, s.Name, err)
			}
		}
	}
	return cas, nil
}

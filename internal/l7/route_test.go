package l7

import (
	"fmt"
	"reflect"
	"slices"
	"testing"
)

// Matches is the route-condition oracle: every condition of the rule read
// in place, in declaration order — the linear scan Route made over the
// installed rules before their conditions were compiled into one program.
// It needs its regex matchers compiled (compileOracle).
func (m *RouteMatch) Matches(r *Request) bool {
	if !m.Method.Matches(r.Method) {
		return false
	}
	if !m.Path.Matches(r.Path) {
		return false
	}
	for i := range m.Headers {
		h := &m.Headers[i]
		if !h.Match.Matches(r.Header(h.Name)) {
			return false
		}
	}
	for i := range m.Cookies {
		c := &m.Cookies[i]
		if !c.Match.Matches(r.Cookie(c.Name)) {
			return false
		}
	}
	return true
}

// compileOracle returns a copy of rules whose regex matchers are compiled,
// for the oracles to evaluate without touching what is installed.
func compileOracle(t *testing.T, rules []Rule, authz []AuthzRule) ([]Rule, []AuthzRule) {
	t.Helper()
	rules, authz = slices.Clone(rules), slices.Clone(authz)
	var ms []*StringMatch
	for i := range rules {
		m := &rules[i].Match
		m.Headers, m.Cookies = slices.Clone(m.Headers), slices.Clone(m.Cookies)
		ms = append(ms, &m.Method, &m.Path)
		for _, kvs := range [][]KVMatch{m.Headers, m.Cookies} {
			for j := range kvs {
				ms = append(ms, &kvs[j].Match)
			}
		}
	}
	for i := range authz {
		ms = append(ms, &authz[i].SourceService, &authz[i].Method, &authz[i].Path)
	}
	for _, m := range ms {
		if err := m.Compile(); err != nil {
			t.Fatal(err)
		}
	}
	return rules, authz
}

// fuzzBytes hands out the fuzz input a byte at a time, zeros once spent.
type fuzzBytes []byte

func (b *fuzzBytes) next() int {
	if len(*b) == 0 {
		return 0
	}
	v := (*b)[0]
	*b = (*b)[1:]
	return int(v)
}

// pickOf chooses one of the options by the next byte.
func pickOf[T any](b *fuzzBytes, opts ...T) T { return opts[b.next()%len(opts)] }

// fuzzStringMatch draws a matcher of any op over a small value space;
// values holds "" so empty exact and prefix matchers occur.
func fuzzStringMatch(b *fuzzBytes, values ...string) StringMatch {
	switch b.next() % 6 {
	case 0, 1:
		return Any()
	case 2:
		return Exact(pickOf(b, values...))
	case 3:
		return Prefix(pickOf(b, values...))
	case 4:
		return Regex(pickOf(b, "^/a", "^/a/[0-9]+$", "(?i)^/A", "b", "^$", "^G", "(?m)^x$", "^x|^y"))
	default:
		return Present()
	}
}

// fuzzKVs draws up to two header or cookie conditions; names repeat.
func fuzzKVs(b *fuzzBytes, names ...string) []KVMatch {
	var kvs []KVMatch
	for n := b.next() % 3; n > 0; n-- {
		kvs = append(kvs, KVMatch{Name: pickOf(b, names...), Match: fuzzStringMatch(b, "", "x", "y")})
	}
	return kvs
}

// fuzzValues draws a header or cookie map over the names conditions use;
// an absent name and an empty value both occur, and so does a nil map.
func fuzzValues(b *fuzzBytes, names ...string) map[string]string {
	if b.next()%4 == 0 {
		return nil
	}
	m := map[string]string{}
	for _, name := range names {
		if v := b.next() % 4; v > 0 {
			m[name] = []string{"", "x", "y"}[v-1]
		}
	}
	return m
}

// FuzzRouteProgram differentially tests the compiled route program against
// the linear scan of the rules' conditions (RouteMatch.Matches): random rule
// lists over every op on method, path, headers and cookies — rules with
// only Any conditions, repeated header names and empty values among them —
// and random requests, each routed to the oracle's verdict: the first
// matching rule, a subset from its split (or the default), its rewrite, or
// the authorization deny the AuthzRule oracle reaches.
func FuzzRouteProgram(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15})
	f.Add([]byte("\x05\x02\x02\x03\x04\x05\x00\x01\x02\x03\x04\x05\x02\x01\x00\x03"))
	f.Add([]byte("headers h and h again, cookie c empty, then an any-only rule"))
	f.Fuzz(func(t *testing.T, data []byte) {
		b := fuzzBytes(data)
		methods, paths := []string{"", "GET", "POST"}, []string{"", "/", "/a", "/a/1", "/A/2", "/b", "x"}
		cfg := ServiceConfig{Service: "svc", DefaultSubset: "v1"}
		for i, n := 0, 1+b.next()%6; i < n; i++ {
			r := Rule{Name: fmt.Sprintf("r%d", i)}
			if b.next()%5 != 0 { // else a rule with only Any conditions
				r.Match = RouteMatch{
					Method:  fuzzStringMatch(&b, methods...),
					Path:    fuzzStringMatch(&b, paths...),
					Headers: fuzzKVs(&b, "h", "k", ""),
					Cookies: fuzzKVs(&b, "c", "h"),
				}
			}
			if b.next()%3 == 0 {
				r.Splits = []Split{{Subset: "v2", Weight: 1 + b.next()%3}, {Subset: "v3", Weight: b.next() % 3}}
			}
			if b.next()%2 == 0 {
				r.PathRewrite = "/rw/" + r.Name
			}
			cfg.Rules = append(cfg.Rules, r)
		}
		for n := b.next() % 3; n > 0; n-- {
			cfg.Authz = append(cfg.Authz, AuthzRule{Name: fmt.Sprintf("a%d", n),
				Action: pickOf(&b, AuthzAllow, AuthzDeny), Method: fuzzStringMatch(&b, methods...), Path: fuzzStringMatch(&b, paths...)})
		}
		e := NewEngine(1)
		if err := e.Configure(cfg); err != nil {
			t.Fatal(err)
		}
		rules, authz := compileOracle(t, cfg.Rules, cfg.Authz)
		for q := 0; q < 16; q++ {
			r := &Request{Service: "svc", SourceService: "web", Method: pickOf(&b, methods...), Path: pickOf(&b, paths...),
				Headers: fuzzValues(&b, "h", "k", ""), Cookies: fuzzValues(&b, "c", "h")}
			d, err := e.Route(0, r)
			if ok, reason := authorize(authz, r); !ok {
				if err == nil || StatusOf(err) != StatusForbidden || d.DenyReason != reason {
					t.Fatalf("request %+v: got %+v, %v; the authz oracle denies: %s", r, d, err, reason)
				}
				continue
			}
			if err != nil {
				t.Fatalf("request %+v: %v", r, err)
			}
			want := slices.IndexFunc(rules, func(rule Rule) bool { return rule.Match.Matches(r) })
			if want < 0 {
				if d.Rule != "" || d.Subset != "v1" || d.PathRewrite != "" {
					t.Fatalf("request %+v: got %+v, the oracle matches no rule", r, d)
				}
				continue
			}
			rule := &rules[want]
			if d.Rule != rule.Name || d.PathRewrite != rule.PathRewrite {
				t.Fatalf("request %+v: got rule %q rewrite %q, the oracle's is %q rewrite %q",
					r, d.Rule, d.PathRewrite, rule.Name, rule.PathRewrite)
			}
			subsets := []string{"v1"}
			if len(rule.Splits) > 0 {
				subsets = nil
				for _, s := range rule.Splits {
					if s.Weight > 0 {
						subsets = append(subsets, s.Subset)
					}
				}
			}
			if !slices.Contains(subsets, d.Subset) {
				t.Fatalf("request %+v: subset %q, rule %s routes to %v", r, d.Subset, rule.Name, subsets)
			}
		}
	})
}

// TestConfigureCopiesCallerMemory pins that what Configure installs shares
// no memory with the caller: neither writes through the configuration it
// was given nor writes through the value Config hands out reach a request,
// and Config keeps reporting what was installed.
func TestConfigureCopiesCallerMemory(t *testing.T) {
	config := func() ServiceConfig {
		return ServiceConfig{Service: "svc", DefaultSubset: "v1", Rules: []Rule{{
			Name:          "x",
			Match:         RouteMatch{Path: Exact("/x"), Headers: []KVMatch{{Name: "h", Match: Exact("1")}}},
			Splits:        []Split{{Subset: "v2", Weight: 1}},
			SetHeaders:    map[string]string{"k": "v"},
			RemoveHeaders: []string{"drop"},
			Fault:         &FaultSpec{},
			RateLimit:     &RateLimitSpec{RPS: 1e6, Burst: 1e6},
		}}}
	}
	e := NewEngine(1)
	cfg := config()
	if err := e.Configure(cfg); err != nil {
		t.Fatal(err)
	}
	installed, _ := e.Config("svc")
	for _, c := range []ServiceConfig{cfg, installed} {
		r := &c.Rules[0]
		r.Match.Path = Exact("/y")
		r.Match.Headers[0].Match = Exact("2")
		r.Splits[0].Subset = "evil"
		r.SetHeaders["k"] = "changed"
		r.RemoveHeaders[0] = "other"
		r.Fault.AbortPercent = 100
		r.RateLimit.RPS = 0
	}
	headers := map[string]string{"h": "1"}
	d, err := e.Route(0, &Request{Service: "svc", Path: "/x", Headers: headers})
	if err != nil || d.Rule != "x" || d.Subset != "v2" || d.SetHeaders["k"] != "v" || !slices.Equal(d.RemoveHeaders, []string{"drop"}) {
		t.Fatalf("/x after the caller's writes: %+v, %v", d, err)
	}
	if d, err := e.Route(0, &Request{Service: "svc", Path: "/y", Headers: headers}); err != nil || d.Rule != "" {
		t.Fatalf("/y after the caller's writes: %+v, %v", d, err)
	}
	if again, _ := e.Config("svc"); !reflect.DeepEqual(again, config()) {
		t.Fatalf("Config after the caller's writes:\n%+v\nwant\n%+v", again, config())
	}
}

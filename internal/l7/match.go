package l7

import (
	"slices"

	"canalmesh/internal/policy"
)

// StringMatch matches a single string value. It is the policy package's
// predicate: route conditions and authorization rules share one matcher and
// its one compile step (Match.Compile), which Engine.Configure runs on every
// matcher it installs.
type StringMatch = policy.Match

// KVMatch matches a named header or cookie.
type KVMatch = policy.HeaderMatch

// Matcher constructors. None of them panics: an invalid Regex pattern is the
// error of the Configure call that installs it.
var (
	// Exact returns an equality matcher.
	Exact = policy.Exact
	// Prefix returns a prefix matcher.
	Prefix = policy.Prefix
	// Regex returns a regular-expression matcher.
	Regex = policy.Regex
	// Present returns a matcher for any non-empty value.
	Present = policy.Present
	// Any returns a matcher that always matches.
	Any = policy.Any
)

// RouteMatch is the condition part of a route rule. Zero-value fields match
// anything, so rules only state what they care about — the style of the
// paper's "URL, HTTP headers, and message content" routing policies.
type RouteMatch struct {
	Method  StringMatch
	Path    StringMatch
	Headers []KVMatch
	Cookies []KVMatch
}

// compile pre-builds every regex matcher in the condition, interned in p,
// so the per-request path never compiles. The header and cookie lists are
// copied first: the engine writes into what it installs, never into the
// caller's slices. A nil error means the condition holds one reference per
// regex matcher in p until they are released.
func (m *RouteMatch) compile(p *policy.Patterns) error {
	m.Headers, m.Cookies = slices.Clone(m.Headers), slices.Clone(m.Cookies)
	return p.Intern(m.predicates()...)
}

// predicates lists the condition's string matchers.
func (m *RouteMatch) predicates() []*StringMatch {
	ps := make([]*StringMatch, 0, 2+len(m.Headers)+len(m.Cookies))
	ps = append(ps, &m.Method, &m.Path)
	for _, kvs := range [][]KVMatch{m.Headers, m.Cookies} {
		for i := range kvs {
			ps = append(ps, &kvs[i].Match)
		}
	}
	return ps
}

// Matches reports whether the request satisfies every condition. It reads
// the condition in place: the route loop calls it for every rule it scans.
//
//canal:hotpath
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

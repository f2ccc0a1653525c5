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

// compile pre-builds every regex matcher in the condition, so the per-request
// path never compiles. The header and cookie lists are copied first: the
// engine writes into what it installs, never into the caller's slices.
func (m *RouteMatch) compile() error {
	if err := m.Method.Compile(); err != nil {
		return err
	}
	if err := m.Path.Compile(); err != nil {
		return err
	}
	m.Headers, m.Cookies = slices.Clone(m.Headers), slices.Clone(m.Cookies)
	for _, kvs := range [][]KVMatch{m.Headers, m.Cookies} {
		for i := range kvs {
			if err := kvs[i].Match.Compile(); err != nil {
				return err
			}
		}
	}
	return nil
}

// Matches reports whether the request satisfies every condition.
//
//canal:hotpath
func (m RouteMatch) Matches(r *Request) bool {
	if !m.Method.Matches(r.Method) {
		return false
	}
	if !m.Path.Matches(r.Path) {
		return false
	}
	for _, h := range m.Headers {
		if !h.Match.Matches(r.Header(h.Name)) {
			return false
		}
	}
	for _, c := range m.Cookies {
		if !c.Match.Matches(r.Cookie(c.Name)) {
			return false
		}
	}
	return true
}

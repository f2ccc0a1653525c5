package l7

import (
	"strings"

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

// field names the part of a request a route condition reads.
type field uint8

const (
	fieldMethod field = iota
	fieldPath
	fieldHeader
	fieldCookie
)

// cond is one condition of a route program: the request field it reads —
// for a header or cookie, under which name — and the predicate over it.
type cond struct {
	field field
	name  string
	match policy.Match
}

// matches reports whether the request's field satisfies the condition.
func (c *cond) matches(r *Request) bool {
	switch c.field {
	case fieldMethod:
		return c.match.Matches(r.Method)
	case fieldPath:
		return c.match.Matches(r.Path)
	case fieldHeader:
		return c.match.Matches(r.Header(c.name))
	default:
		return c.match.Matches(r.Cookie(c.name))
	}
}

// program is a service's route rules' conditions compiled for the scan
// Route makes over them per request: every condition of every rule in one
// contiguous slice, in rule order, with the conditions that match anything
// left out, so rule i is the conditions conds[ends[i-1]:ends[i]] and a rule
// with none matches every request. Every header or cookie name and every
// match value is a slice of one string, so the scan reads a few adjacent
// cache lines rather than a string allocation per condition.
type program struct {
	conds []cond
	ends  []int32
}

// compileProgram lays out the conditions of rules as a program. Its regex
// conditions match nothing until Configure interns them.
func compileProgram(rules []Rule) program {
	var p program
	size := 0
	add := func(f field, name string, m policy.Match) {
		if m.Op == policy.OpAny {
			return
		}
		p.conds = append(p.conds, cond{field: f, name: name, match: policy.Match{Op: m.Op, Value: m.Value}})
		size += len(name) + len(m.Value)
	}
	p.ends = make([]int32, len(rules))
	for i := range rules {
		m := &rules[i].Match
		add(fieldMethod, "", m.Method)
		add(fieldPath, "", m.Path)
		for _, h := range m.Headers {
			add(fieldHeader, h.Name, h.Match)
		}
		for _, c := range m.Cookies {
			add(fieldCookie, c.Name, c.Match)
		}
		p.ends[i] = int32(len(p.conds))
	}
	var b strings.Builder
	b.Grow(size)
	for i := range p.conds {
		b.WriteString(p.conds[i].name)
		b.WriteString(p.conds[i].match.Value)
	}
	arena, off := b.String(), 0
	cut := func(n int) string {
		s := arena[off : off+n]
		off += n
		return s
	}
	for i := range p.conds {
		c := &p.conds[i]
		c.name = cut(len(c.name))
		c.match.Value = cut(len(c.match.Value))
	}
	return p
}

// matchers lists the conditions' predicates from conds[start:end].
func (p *program) matchers(start, end int) []*policy.Match {
	ms := make([]*policy.Match, 0, end-start)
	for i := start; i < end; i++ {
		ms = append(ms, &p.conds[i].match)
	}
	return ms
}

// match runs the program against a request: the index of the first rule
// whose every condition holds, or -1 when none does.
func (p *program) match(r *Request) int {
	c := 0
	for i, end := range p.ends {
		for c < int(end) && p.conds[c].matches(r) {
			c++
		}
		if c == int(end) {
			return i
		}
		c = int(end)
	}
	return -1
}

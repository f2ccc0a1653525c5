// Package policy is the tenant intention/authorization subsystem: zero-trust
// source→destination policies ("intentions") compiled into per-gateway
// dispatch tables so that per-request enforcement cost is a function of the
// candidate bucket, not of the total rule count.
//
// An Intention names a source (tenant + service), a destination service, an
// action (allow/deny), an explicit precedence, and optional L7 predicates
// (method, path, headers). The Compiler places every intention into exactly
// one bucket keyed by the exact-match dimensions of its (src tenant, src
// service, dst service) triple — wildcard dimensions collapse to "*" — and
// a request lookup probes at most eight such keys: the exact triple plus the
// seven wildcard combinations. The source tenant is part of every key, so
// one tenant's pathological rule set lands only in its own buckets and can
// never widen another tenant's probe path.
//
// Policy changes recompile only the touched buckets (incremental
// recompilation), and every bucket is content-addressed — same members, same
// hash — so the configpush delta machinery ships exactly the buckets a
// change touched. "Enabling Network Policy Enforcement in Service Meshes"
// (PAPERS.md) motivates the compiled per-gateway layout; the policy-scale
// bench experiment proves enforcement stays near-flat from 10^3 to 10^6
// rules.
package policy

import (
	"fmt"
	"regexp"
	"strconv"
	"strings"
)

// Op selects how a Match compares values.
type Op uint8

const (
	// OpAny matches everything, including the empty string.
	OpAny Op = iota
	// OpExact compares for equality.
	OpExact
	// OpPrefix tests for a leading substring.
	OpPrefix
	// OpRegex applies a compiled regular expression.
	OpRegex
	// OpPresent matches any non-empty value.
	OpPresent
)

// String returns the op's canonical name (used in content hashes).
func (o Op) String() string {
	switch o {
	case OpAny:
		return "any"
	case OpExact:
		return "eq"
	case OpPrefix:
		return "pfx"
	case OpRegex:
		return "re"
	case OpPresent:
		return "has"
	default:
		return "op?"
	}
}

// Match is one string predicate of an intention. A regex predicate points
// at its compiled pattern: the expression and its anchored prefix.
type Match struct {
	Op    Op
	Value string
	re    *pattern
}

// Any returns a matcher that always matches.
func Any() Match { return Match{Op: OpAny} }

// Exact returns an equality matcher.
func Exact(v string) Match { return Match{Op: OpExact, Value: v} }

// Prefix returns a prefix matcher.
func Prefix(v string) Match { return Match{Op: OpPrefix, Value: v} }

// Regex returns a regular-expression matcher. It never panics: the pattern
// is compiled by whatever installs the matcher (Compiler.Apply, l7's
// Engine.Configure, both through Patterns), and an invalid one is that
// step's error, never a per-request cost.
func Regex(pattern string) Match { return Match{Op: OpRegex, Value: pattern} }

// Present returns a matcher for any non-empty value.
func Present() Match { return Match{Op: OpPresent} }

// Compile pre-builds the regular expression so the lookup path never
// compiles. It is the one compile step of every predicate in the module, and
// returns an error for an invalid pattern. Compiling twice is a no-op. What
// installs predicates goes through Patterns.Intern, which compiles each
// distinct pattern once, here, and shares the result.
func (m *Match) Compile() error {
	if m.Op != OpRegex || m.re != nil {
		return nil
	}
	re, err := regexp.Compile(m.Value)
	if err != nil {
		return fmt.Errorf("policy: bad regex %q: %w", m.Value, err)
	}
	m.re = &pattern{re: re, prefix: anchoredPrefix(m.Value)}
	return nil
}

// Matches reports whether the predicate accepts v. It never compiles: a
// regex predicate that was not compiled matches nothing. A regex whose
// every match starts with a literal (anchoredPrefix) runs only on values
// that start with it.
func (m *Match) Matches(v string) bool {
	switch m.Op {
	case OpAny:
		return true
	case OpExact:
		return v == m.Value
	case OpPrefix:
		return strings.HasPrefix(v, m.Value)
	case OpRegex:
		return m.re != nil && strings.HasPrefix(v, m.re.prefix) && m.re.re.MatchString(v)
	case OpPresent:
		return v != ""
	default:
		return false
	}
}

// fold streams the predicate's canonical form, "<op>:<value>", into a
// running FNV-1a hash.
func (m *Match) fold(h uint64) uint64 {
	return fnvString(fnvByte(fnvString(h, m.Op.String()), ':'), m.Value)
}

// HeaderMatch is a named header predicate.
type HeaderMatch struct {
	Name  string
	Match Match
}

// Action is the effect of an intention.
type Action uint8

const (
	// ActionAllow admits matching traffic.
	ActionAllow Action = iota
	// ActionDeny rejects matching traffic.
	ActionDeny
)

// String returns the action name.
func (a Action) String() string {
	if a == ActionDeny {
		return "deny"
	}
	return "allow"
}

// WildcardTenant marks an intention as applying to every source tenant.
// The empty string means the same.
const WildcardTenant = "*"

// Intention is one source→destination policy. The Src/Dst service matchers
// decide bucket placement: an OpExact matcher becomes part of the dispatch
// key, anything else collapses that dimension to the wildcard bucket and is
// evaluated as a per-candidate predicate.
type Intention struct {
	// ID is the stable identity across updates (required, unique).
	ID string
	// Name is the operator-facing rule name carried into deny reasons.
	Name string
	// SrcTenant is the exact source tenant, or ""/WildcardTenant for any.
	SrcTenant string
	// Src matches the source service name.
	Src Match
	// Dst matches the destination service name.
	Dst Match
	// Method, Path and Headers are the L7 predicates.
	Method  Match
	Path    Match
	Headers []HeaderMatch
	// Action is allow or deny.
	Action Action
	// Precedence orders evaluation: the highest-precedence matching
	// intention wins; at equal precedence deny wins over allow, and the
	// earlier-installed intention wins among same-action ties.
	Precedence int
}

// fold streams the intention's canonical form into a running FNV-1a hash,
// closed like one fnv64Fold string: every semantic field in a fixed order,
// NUL-terminated — ID, name, tenant key, the src/dst/method/path predicates,
// each header as name 0x01 predicate — then "<action>/<precedence>". Two
// intentions with equal canonical forms are interchangeable, which is what
// bucket content-addressing hashes; the form is never built as a string.
func (in *Intention) fold(h uint64) uint64 {
	h = fnvByte(fnvString(h, in.ID), 0)
	h = fnvByte(fnvString(h, in.Name), 0)
	h = fnvByte(fnvString(h, in.tenantKey()), 0)
	for _, m := range [...]*Match{&in.Src, &in.Dst, &in.Method, &in.Path} {
		h = fnvByte(m.fold(h), 0)
	}
	for i := range in.Headers {
		hm := &in.Headers[i]
		h = fnvByte(fnvString(h, hm.Name), 1)
		h = fnvByte(hm.Match.fold(h), 0)
	}
	h = fnvByte(fnvString(h, in.Action.String()), '/')
	var digits [20]byte
	for _, d := range strconv.AppendInt(digits[:0], int64(in.Precedence), 10) {
		h = fnvByte(h, d)
	}
	return fnvByte(h, 0xff)
}

// appendPredicates appends the intention's string predicates to buf,
// headers last: what Patterns interns when the intention is installed and
// releases when it goes. A caller passing a stack array's slice lists them
// without allocating, for up to that array's length.
func (in *Intention) appendPredicates(buf []*Match) []*Match {
	buf = append(buf, &in.Src, &in.Dst, &in.Method, &in.Path)
	for i := range in.Headers {
		buf = append(buf, &in.Headers[i].Match)
	}
	return buf
}

// tenantKey normalizes the source-tenant dimension ("" → "*").
func (in *Intention) tenantKey() string {
	if in.SrcTenant == "" {
		return WildcardTenant
	}
	return in.SrcTenant
}

// Query is the enforcement-relevant view of one request.
type Query struct {
	SrcTenant  string
	SrcService string
	DstService string
	Method     string
	Path       string
	Headers    map[string]string
}

// Verdict is the outcome of one policy lookup.
type Verdict struct {
	Allowed bool
	// Rule is the matched intention's name ("" when no intention matched
	// and the default applied).
	Rule string
	// Reason is the precomputed rejection string for denied requests.
	Reason string
}

// defaultDenyReason is the zero-trust default: once any allow intention
// exists for a destination, unmatched traffic to it is rejected.
const defaultDenyReason = "no allow rule matched"

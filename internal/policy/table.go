package policy

import "strings"

// This file is the compiled dispatch table: the read-side data structure a
// gateway evaluates per request. The Compiler (compiler.go) owns mutation;
// the table itself is plain maps and sorted slices so the lookup path is
// allocation- and lock-free.

// key3 is one dispatch key: the (src tenant, src service, dst service)
// triple with wildcard dimensions collapsed to "*". Struct map keys compare
// without allocating, which keeps Eval off the heap.
type key3 struct {
	t, s, d string
}

// wild is the collapsed wildcard dimension.
const wild = "*"

// canon renders the key for resource naming and fingerprints: the three
// dimensions joined by "|", each with every `\` and "|" escaped by a
// backslash, so distinct keys never render alike (tenant "a|b" with source
// "c" against tenant "a" with source "b|c"). Names holding neither byte
// render as they are.
func (k key3) canon() string {
	return escapeDim(k.t) + "|" + escapeDim(k.s) + "|" + escapeDim(k.d)
}

// appendCanon appends canon's bytes to buf without building the string.
func (k key3) appendCanon(buf []byte) []byte {
	buf = appendDim(buf, k.t)
	buf = append(buf, '|')
	buf = appendDim(buf, k.s)
	buf = append(buf, '|')
	return appendDim(buf, k.d)
}

// canonLen is the length of canon's rendering.
func (k key3) canonLen() int { return dimLen(k.t) + 1 + dimLen(k.s) + 1 + dimLen(k.d) }

// escapeDim backslash-escapes every `\` and "|" in one key dimension.
func escapeDim(s string) string {
	n := dimLen(s)
	if n == len(s) {
		return s
	}
	return string(appendDim(make([]byte, 0, n), s))
}

// appendDim appends one key dimension to buf, escaped as escapeDim does.
func appendDim(buf []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if s[i] == '\\' || s[i] == '|' {
			buf = append(buf, '\\')
		}
		buf = append(buf, s[i])
	}
	return buf
}

// dimLen is the length of one key dimension once escaped.
func dimLen(s string) int { return len(s) + strings.Count(s, "|") + strings.Count(s, `\`) }

// compiled is one intention prepared for evaluation: predicates
// pre-compiled (regexes interned), a deny's reason pre-concatenated, and a
// global installation sequence breaking precedence ties deterministically.
// Its bucket key is derived from the intention on demand (key), not stored.
type compiled struct {
	in    Intention
	order int // installation sequence; lower wins same-precedence ties
	// srcPred/dstPred mark service dimensions that did not collapse into
	// the key and must be evaluated per candidate.
	srcPred bool
	dstPred bool
	// removed tombstones an unplaced intention in its bucket's slice until
	// the Apply that removed it rebuilds the bucket.
	removed    bool
	denyReason string // set for deny intentions only
}

// key derives the intention's dispatch key: exact dimensions as they are,
// every other dimension collapsed to the wildcard.
func (c *compiled) key() key3 {
	k := key3{t: c.in.tenantKey(), s: wild, d: wild}
	if c.in.Src.Op == OpExact {
		k.s = c.in.Src.Value
	}
	if c.in.Dst.Op == OpExact {
		k.d = c.in.Dst.Value
	}
	return k
}

// matches reports whether the request satisfies every remaining predicate.
// Dimensions that are part of the bucket key are already proven equal.
func (c *compiled) matches(q *Query) bool {
	if c.srcPred && !c.in.Src.Matches(q.SrcService) {
		return false
	}
	if c.dstPred && !c.in.Dst.Matches(q.DstService) {
		return false
	}
	if !c.in.Method.Matches(q.Method) {
		return false
	}
	if !c.in.Path.Matches(q.Path) {
		return false
	}
	for i := range c.in.Headers {
		h := &c.in.Headers[i]
		var v string
		if q.Headers != nil {
			v = q.Headers[h.Name]
		}
		if !h.Match.Matches(v) {
			return false
		}
	}
	return true
}

// beats reports whether c wins over o: higher precedence first, deny over
// allow at equal precedence, then the earlier-installed intention. The
// relation is a strict total order (order is unique), so bucket sorting and
// cross-bucket comparison are deterministic.
func (c *compiled) beats(o *compiled) bool {
	if c.in.Precedence != o.in.Precedence {
		return c.in.Precedence > o.in.Precedence
	}
	cd, od := c.in.Action == ActionDeny, o.in.Action == ActionDeny
	if cd != od {
		return cd
	}
	return c.order < o.order
}

// bucket is one dispatch-table cell: the intentions sharing a key, held by
// value in the table's maps. The beats-sorted slice is the membership: an
// Apply places into a working copy of the bucket (appending), unplacing
// tombstones (compiled.removed), and the Apply's rebuild compacts and
// re-sorts the copy and stores it, so Eval only ever sees a sorted slice of
// live rules.
type bucket struct {
	rules []*compiled // sorted: best first
	hash  uint64      // content address over the members' canonical forms
}

// Table is the compiled dispatch table. Exact-tenant buckets live in one
// map keyed by the whole triple; the tenant is part of every key, so one
// tenant's rules never land on another tenant's probe path. Wildcard-tenant
// buckets are grouped by destination: those with an exact destination —
// every AuthzRule an l7 engine translates — in one small map per
// destination keyed by the source dimension, so a lookup touches only its
// destination's map; those with a wildcard destination in anyDst, keyed the
// same way, which is empty in most deployments and then costs a lookup
// nothing. allowByDst/allowAnyDst track allow-intention existence per
// destination, which decides the zero-trust default for unmatched traffic.
type Table struct {
	exact  map[key3]bucket              // {t, s, d} with an exact tenant
	byDst  map[string]map[string]bucket // {*, s, d}: d → s → bucket
	anyDst map[string]bucket            // {*, s, *}: s → bucket

	allowByDst  map[string]int
	allowAnyDst int
}

// each calls f with every bucket and its key, in no particular order.
func (t *Table) each(f func(key3, bucket)) {
	for k, b := range t.exact {
		f(k, b)
	}
	for d, m := range t.byDst {
		for s, b := range m {
			f(key3{wild, s, d}, b)
		}
	}
	for s, b := range t.anyDst {
		f(key3{wild, s, wild}, b)
	}
}

// size returns the number of buckets.
func (t *Table) size() int {
	n := len(t.exact) + len(t.anyDst)
	for _, m := range t.byDst {
		n += len(m)
	}
	return n
}

// newTable returns an empty table.
func newTable() *Table {
	return &Table{
		exact:      make(map[key3]bucket),
		byDst:      make(map[string]map[string]bucket),
		anyDst:     make(map[string]bucket),
		allowByDst: make(map[string]int),
	}
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// fnvString folds a string's bytes into a running FNV-1a hash.
func fnvString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = fnvByte(h, s[i])
	}
	return h
}

// fnvBytes folds a byte slice into a running FNV-1a hash.
func fnvBytes(h uint64, b []byte) uint64 {
	for _, c := range b {
		h = fnvByte(h, c)
	}
	return h
}

// fnvByte folds one byte into a running FNV-1a hash.
func fnvByte(h uint64, b byte) uint64 { return (h ^ uint64(b)) * fnvPrime }

// lookup returns the key's bucket, or the zero bucket when it has none.
func (t *Table) lookup(k key3) bucket {
	switch {
	case k.t != wild:
		return t.exact[k]
	case k.d != wild:
		return t.byDst[k.d][k.s]
	default:
		return t.anyDst[k.s]
	}
}

// store files a bucket under its key.
func (t *Table) store(k key3, b bucket) {
	switch {
	case k.t != wild:
		t.exact[k] = b
	case k.d != wild:
		m := t.byDst[k.d]
		if m == nil {
			m = make(map[string]bucket)
			t.byDst[k.d] = m
		}
		m[k.s] = b
	default:
		t.anyDst[k.s] = b
	}
}

// remove drops the key's bucket, and with a destination's last bucket its
// map.
func (t *Table) remove(k key3) {
	switch {
	case k.t != wild:
		delete(t.exact, k)
	case k.d != wild:
		if m := t.byDst[k.d]; m != nil {
			if delete(m, k.s); len(m) == 0 {
				delete(t.byDst, k.d)
			}
		}
	default:
		delete(t.anyDst, k.s)
	}
}

// scan walks one candidate bucket's rules best-first, returning the winning
// match between the bucket and the incumbent. Because rules are
// beats-sorted, the walk stops as soon as the remaining candidates cannot
// beat the incumbent — per-request cost is bounded by the candidate bucket,
// never the table. A key with no bucket has no rules.
func (t *Table) scan(rules []*compiled, q *Query, best *compiled) *compiled {
	for _, c := range rules {
		if best != nil && !c.beats(best) {
			return best
		}
		if c.matches(q) {
			return c
		}
	}
	return best
}

// eval resolves one query against the table: probe the source tenant's
// four key combinations only when some exact-tenant bucket exists, the
// destination's map for the exact and wildcard source, and the two
// wildcard-destination keys only when a wildcard-destination bucket exists;
// pick the winning match, and fall back to the zero-trust default. The winner is the beats-best matching
// candidate whatever order the buckets are probed in.
func (t *Table) eval(q *Query) Verdict {
	var best *compiled
	if len(t.exact) > 0 {
		best = t.scan(t.exact[key3{q.SrcTenant, q.SrcService, q.DstService}].rules, q, best)
		best = t.scan(t.exact[key3{q.SrcTenant, q.SrcService, wild}].rules, q, best)
		best = t.scan(t.exact[key3{q.SrcTenant, wild, q.DstService}].rules, q, best)
		best = t.scan(t.exact[key3{q.SrcTenant, wild, wild}].rules, q, best)
	}
	if m := t.byDst[q.DstService]; m != nil {
		best = t.scan(m[q.SrcService].rules, q, best)
		best = t.scan(m[wild].rules, q, best)
	}
	if len(t.anyDst) > 0 {
		best = t.scan(t.anyDst[q.SrcService].rules, q, best)
		best = t.scan(t.anyDst[wild].rules, q, best)
	}

	if best != nil {
		if best.in.Action == ActionDeny {
			return Verdict{Rule: best.in.Name, Reason: best.denyReason}
		}
		return Verdict{Allowed: true, Rule: best.in.Name}
	}
	// Zero-trust default: a destination with at least one allow intention
	// admits only matched traffic; an unpoliced destination admits all.
	if t.allowAnyDst > 0 || t.allowByDst[q.DstService] > 0 {
		return Verdict{Reason: defaultDenyReason}
	}
	return Verdict{Allowed: true}
}

// candidateRules counts the rules in the buckets a query would probe — the
// quantity the isolation claim bounds (a tenant's probe path only widens
// with its own rules plus the wildcard-tenant set).
func (t *Table) candidateRules(q *Query) int {
	n := 0
	for _, k := range [4]key3{
		{q.SrcTenant, q.SrcService, q.DstService},
		{q.SrcTenant, q.SrcService, wild},
		{q.SrcTenant, wild, q.DstService},
		{q.SrcTenant, wild, wild},
	} {
		n += len(t.exact[k].rules)
	}
	for _, k := range [4]key3{
		{wild, q.SrcService, q.DstService},
		{wild, q.SrcService, wild},
		{wild, wild, q.DstService},
		{wild, wild, wild},
	} {
		n += len(t.lookup(k).rules)
	}
	return n
}

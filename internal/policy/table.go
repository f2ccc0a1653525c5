package policy

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

// canon renders the key for resource naming and fingerprints.
func (k key3) canon() string { return k.t + "|" + k.s + "|" + k.d }

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
//
//canal:hotpath
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
//
//canal:hotpath
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

// bucket is one dispatch-table cell: the intentions sharing a key. The
// beats-sorted slice is the membership: placing appends, unplacing
// tombstones (compiled.removed), and the Apply's rebuild compacts and
// re-sorts, so Eval only ever sees a sorted slice of live rules.
type bucket struct {
	rules []*compiled // sorted: best first
	hash  uint64      // content address over the members' canonical forms
}

// Table is the compiled dispatch table. Exact-tenant buckets live in the
// shuffle-sharded shard array; wildcard-tenant buckets live in the global
// map. allowByDst/allowAnyDst track allow-intention existence per
// destination, which decides the zero-trust default for unmatched traffic.
type Table struct {
	shards []map[key3]*bucket
	global map[key3]*bucket
	// assign is each tenant's shuffle-shard assignment: h of the K shard
	// indices, a deterministic function of (tenant, seed). It is created
	// with the tenant's first bucket and released with its last; buckets
	// counts each assigned tenant's buckets.
	assign  map[string][]int
	buckets map[string]int

	allowByDst  map[string]int
	allowAnyDst int
}

// newTable returns an empty table with k shards.
func newTable(k int) *Table {
	t := &Table{
		shards:     make([]map[key3]*bucket, k),
		global:     make(map[key3]*bucket),
		assign:     make(map[string][]int),
		buckets:    make(map[string]int),
		allowByDst: make(map[string]int),
	}
	for i := range t.shards {
		t.shards[i] = make(map[key3]*bucket)
	}
	return t
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

// fnvByte folds one byte into a running FNV-1a hash.
func fnvByte(h uint64, b byte) uint64 { return (h ^ uint64(b)) * fnvPrime }

// fnv64 hashes a sequence of strings with FNV-1a, byte-by-byte so the
// lookup path never converts strings to byte slices (no allocation).
//
//canal:hotpath
func fnv64(parts ...string) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for _, p := range parts {
		for i := 0; i < len(p); i++ {
			h ^= uint64(p[i])
			h *= prime
		}
		h ^= 0xff
		h *= prime
	}
	return h
}

// shardOf maps an exact-tenant key onto one of the tenant's assigned
// shards. idxs is the tenant's shuffle assignment.
//
//canal:hotpath
func shardOf(idxs []int, k key3) int {
	return idxs[fnv64(k.t, k.s, k.d)%uint64(len(idxs))]
}

// home returns the map holding the key's bucket: the owning tenant's shard
// or the global map. It is nil when the tenant has no assignment.
func (t *Table) home(k key3) map[key3]*bucket {
	if k.t == wild {
		return t.global
	}
	idxs := t.assign[k.t]
	if idxs == nil {
		return nil
	}
	return t.shards[shardOf(idxs, k)]
}

// scan walks one candidate bucket best-first, returning the winning match
// between the bucket and the incumbent. Because rules are beats-sorted, the
// walk stops as soon as the remaining candidates cannot beat the incumbent
// — per-request cost is bounded by the candidate bucket, never the table.
//
//canal:hotpath
func (t *Table) scan(b *bucket, q *Query, best *compiled) *compiled {
	if b == nil {
		return best
	}
	for _, c := range b.rules {
		if best != nil && !c.beats(best) {
			return best
		}
		if c.matches(q) {
			return c
		}
	}
	return best
}

// eval resolves one query against the table: probe the eight key
// combinations (four in the source tenant's shards, four wildcard-tenant),
// pick the winning match, and fall back to the zero-trust default.
//
//canal:hotpath
func (t *Table) eval(q *Query) Verdict {
	var best *compiled
	if idxs := t.assign[q.SrcTenant]; idxs != nil {
		best = t.scan(t.shards[shardOf(idxs, key3{q.SrcTenant, q.SrcService, q.DstService})][key3{q.SrcTenant, q.SrcService, q.DstService}], q, best)
		best = t.scan(t.shards[shardOf(idxs, key3{q.SrcTenant, q.SrcService, wild})][key3{q.SrcTenant, q.SrcService, wild}], q, best)
		best = t.scan(t.shards[shardOf(idxs, key3{q.SrcTenant, wild, q.DstService})][key3{q.SrcTenant, wild, q.DstService}], q, best)
		best = t.scan(t.shards[shardOf(idxs, key3{q.SrcTenant, wild, wild})][key3{q.SrcTenant, wild, wild}], q, best)
	}
	best = t.scan(t.global[key3{wild, q.SrcService, q.DstService}], q, best)
	best = t.scan(t.global[key3{wild, q.SrcService, wild}], q, best)
	best = t.scan(t.global[key3{wild, wild, q.DstService}], q, best)
	best = t.scan(t.global[key3{wild, wild, wild}], q, best)

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
// quantity the shuffle-sharding isolation claim bounds (a tenant's probe
// path only widens with its own rules plus the wildcard-tenant set).
func (t *Table) candidateRules(q *Query) int {
	n := 0
	count := func(b *bucket) {
		if b != nil {
			n += len(b.rules)
		}
	}
	if idxs := t.assign[q.SrcTenant]; idxs != nil {
		for _, k := range [4]key3{
			{q.SrcTenant, q.SrcService, q.DstService},
			{q.SrcTenant, q.SrcService, wild},
			{q.SrcTenant, wild, q.DstService},
			{q.SrcTenant, wild, wild},
		} {
			count(t.shards[shardOf(idxs, k)][k])
		}
	}
	for _, k := range [4]key3{
		{wild, q.SrcService, q.DstService},
		{wild, q.SrcService, wild},
		{wild, wild, q.DstService},
		{wild, wild, wild},
	} {
		count(t.global[k])
	}
	return n
}

package policy

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
)

// Config parameterizes a Compiler.
type Config struct {
	// Shards is the size K of the shuffle-shard array for exact-tenant
	// buckets (default 32).
	Shards int
	// TenantShards is how many of the K shards each tenant is assigned
	// (default 4, clamped to Shards).
	TenantShards int
	// Seed drives the deterministic shuffle that assigns tenants to
	// shards.
	Seed int64
}

// Compiler owns the intention set and its compiled dispatch table. Apply
// mutates incrementally — only the buckets a change touches are rebuilt —
// and Eval is safe for concurrent use against a mutating compiler (one
// writer, many readers).
type Compiler struct {
	mu    sync.RWMutex
	cfg   Config
	table *Table
	// intentions is the authoritative set by ID.
	intentions map[string]*compiled
	seq        int
}

// NewCompiler returns an empty compiler.
func NewCompiler(cfg Config) *Compiler {
	if cfg.Shards <= 0 {
		cfg.Shards = 32
	}
	if cfg.TenantShards <= 0 {
		cfg.TenantShards = 4
	}
	if cfg.TenantShards > cfg.Shards {
		cfg.TenantShards = cfg.Shards
	}
	return &Compiler{
		cfg:        cfg,
		table:      newTable(cfg.Shards),
		intentions: make(map[string]*compiled),
	}
}

// Len returns the number of installed intentions.
func (c *Compiler) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.intentions)
}

// ApplyStats reports the cost of one incremental change set.
type ApplyStats struct {
	Upserts, Deletes int
	// TouchedBuckets is how many dispatch buckets were rebuilt — the unit
	// of incremental recompilation and of configpush delta shipping.
	TouchedBuckets int
	// RebuiltRules is the total membership of the rebuilt buckets.
	RebuiltRules int
}

// Apply atomically deletes and upserts intentions, rebuilding only the
// touched buckets. Deleting an unknown ID is a no-op; upserting an existing
// ID replaces it. The change set becomes visible to Eval all at once.
func (c *Compiler) Apply(deletes []string, upserts []Intention) (ApplyStats, error) {
	// Compile outside the lock: predicate validation and regex builds are
	// per-change work, not per-reader stalls.
	prepared := make([]*compiled, 0, len(upserts))
	for i := range upserts {
		cc, err := prepare(upserts[i])
		if err != nil {
			return ApplyStats{}, err
		}
		prepared = append(prepared, cc)
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	st := ApplyStats{Upserts: len(upserts), Deletes: len(deletes)}
	touched := make(map[key3]struct{})
	for _, id := range deletes {
		if old, ok := c.intentions[id]; ok {
			c.unplace(old)
			touched[old.key] = struct{}{}
			delete(c.intentions, id)
		}
	}
	for _, cc := range prepared {
		if old, ok := c.intentions[cc.in.ID]; ok {
			c.unplace(old)
			touched[old.key] = struct{}{}
		}
		cc.order = c.seq
		c.seq++
		c.place(cc)
		touched[cc.key] = struct{}{}
		c.intentions[cc.in.ID] = cc
	}
	for k := range touched {
		st.TouchedBuckets++
		st.RebuiltRules += c.rebuild(k)
	}
	return st, nil
}

// Upsert installs or replaces a single intention.
func (c *Compiler) Upsert(in Intention) (ApplyStats, error) {
	return c.Apply(nil, []Intention{in})
}

// Delete removes a single intention by ID.
func (c *Compiler) Delete(id string) ApplyStats {
	st, _ := c.Apply([]string{id}, nil)
	return st
}

// prepare validates and compiles one intention: predicates pre-built, the
// dispatch key computed, the deny reason pre-concatenated.
func prepare(in Intention) (*compiled, error) {
	if in.ID == "" {
		return nil, fmt.Errorf("policy: intention %q has no ID", in.Name)
	}
	for _, m := range []*Match{&in.Src, &in.Dst, &in.Method, &in.Path} {
		if err := m.Compile(); err != nil {
			return nil, err
		}
	}
	for i := range in.Headers {
		if err := in.Headers[i].Match.Compile(); err != nil {
			return nil, err
		}
	}
	cc := &compiled{in: in, denyReason: "denied by rule " + in.Name}
	cc.key.t = in.tenantKey()
	if in.Src.Op == OpExact {
		cc.key.s = in.Src.Value
	} else {
		cc.key.s = wild
		cc.srcPred = in.Src.Op != OpAny
	}
	if in.Dst.Op == OpExact {
		cc.key.d = in.Dst.Value
	} else {
		cc.key.d = wild
		cc.dstPred = in.Dst.Op != OpAny
	}
	cc.canon = in.canon()
	return cc, nil
}

// bucketMap returns the map holding the key's bucket, creating the tenant's
// shard assignment on first use.
func (c *Compiler) bucketMap(k key3) map[key3]*bucket {
	if k.t == wild {
		return c.table.global
	}
	idxs := c.table.assign[k.t]
	if idxs == nil {
		idxs = assignShards(k.t, c.cfg)
		c.table.assign[k.t] = idxs
	}
	return c.table.shards[shardOf(idxs, k)]
}

// assignShards computes a tenant's shuffle-shard assignment: h distinct
// indices of the K-shard array, drawn from a generator seeded by the tenant
// name — deterministic across processes, uncorrelated across tenants.
func assignShards(tenant string, cfg Config) []int {
	rng := rand.New(rand.NewSource(cfg.Seed ^ int64(fnv64(tenant))))
	perm := rng.Perm(cfg.Shards)
	idxs := make([]int, cfg.TenantShards)
	copy(idxs, perm)
	return idxs
}

// place inserts a compiled intention into its bucket's membership and
// updates the allow-existence counters. The bucket's sorted view is rebuilt
// separately (rebuild), once per touched bucket per Apply.
func (c *Compiler) place(cc *compiled) {
	m := c.bucketMap(cc.key)
	b := m[cc.key]
	if b == nil {
		b = &bucket{members: make(map[string]*compiled)}
		m[cc.key] = b
	}
	b.members[cc.in.ID] = cc
	if cc.in.Action == ActionAllow {
		if cc.key.d == wild {
			c.table.allowAnyDst++
		} else {
			c.table.allowByDst[cc.key.d]++
		}
	}
}

// unplace removes a compiled intention from its bucket and counters.
func (c *Compiler) unplace(cc *compiled) {
	m := c.bucketMap(cc.key)
	if b := m[cc.key]; b != nil {
		delete(b.members, cc.in.ID)
	}
	if cc.in.Action == ActionAllow {
		if cc.key.d == wild {
			c.table.allowAnyDst--
		} else {
			if c.table.allowByDst[cc.key.d]--; c.table.allowByDst[cc.key.d] == 0 {
				delete(c.table.allowByDst, cc.key.d)
			}
		}
	}
}

// rebuild recomputes one bucket's sorted rule view and content hash from
// its membership, removing the bucket entirely when it emptied. Returns the
// bucket's member count.
func (c *Compiler) rebuild(k key3) int {
	m := c.bucketMap(k)
	b := m[k]
	if b == nil {
		return 0
	}
	if len(b.members) == 0 {
		delete(m, k)
		return 0
	}
	b.rules = b.rules[:0]
	for _, cc := range b.members {
		b.rules = append(b.rules, cc)
	}
	// beats is a strict total order (unique installation sequence), so the
	// sorted view is independent of map iteration order.
	sort.Slice(b.rules, func(i, j int) bool { return b.rules[i].beats(b.rules[j]) })
	h := uint64(14695981039346656037)
	for _, cc := range b.rules {
		h = fnv64Fold(h, cc.canon)
	}
	b.hash = h
	return len(b.rules)
}

// fnv64Fold folds one string into a running FNV-1a hash.
func fnv64Fold(h uint64, s string) uint64 {
	const prime = 1099511628211
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime
	}
	h ^= 0xff
	h *= prime
	return h
}

// Full rebuilds the entire table from the intention set — the baseline
// incremental recompilation is measured against. Returns the number of
// buckets built.
func (c *Compiler) Full() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.table = newTable(c.cfg.Shards)
	touched := make(map[key3]struct{})
	for _, cc := range c.intentions {
		c.place(cc)
		touched[cc.key] = struct{}{}
	}
	for k := range touched {
		c.rebuild(k)
	}
	return len(touched)
}

// Eval resolves one request against the compiled table.
//
//canal:hotpath
func (c *Compiler) Eval(q Query) Verdict {
	//canal:allow hotpath uncontended RLock guarding the table against incremental recompiles on the concurrent live gateway
	c.mu.RLock()
	v := c.table.eval(&q)
	c.mu.RUnlock()
	return v
}

// CandidateRules counts the rules on a query's probe path — the quantity
// lookup cost scales with (tests pin the shuffle-shard isolation claim on
// it).
func (c *Compiler) CandidateRules(q Query) int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.table.candidateRules(&q)
}

// TableStats summarizes the compiled table's shape.
type TableStats struct {
	Intentions int
	Buckets    int
	MaxBucket  int
	// GlobalRules counts rules in wildcard-tenant buckets — every
	// tenant's probe path includes these.
	GlobalRules int
	// Tenants is how many tenants hold a shard assignment.
	Tenants int
}

// Stats computes the table's current shape.
func (c *Compiler) Stats() TableStats {
	c.mu.RLock()
	defer c.mu.RUnlock()
	st := TableStats{Intentions: len(c.intentions), Tenants: len(c.table.assign)}
	walk := func(m map[key3]*bucket, global bool) {
		for _, b := range m {
			st.Buckets++
			if len(b.members) > st.MaxBucket {
				st.MaxBucket = len(b.members)
			}
			if global {
				st.GlobalRules += len(b.members)
			}
		}
	}
	for _, m := range c.table.shards {
		walk(m, false)
	}
	walk(c.table.global, true)
	return st
}

// BucketResource is one bucket's content-addressed identity, the unit the
// configpush delta machinery ships: an unchanged bucket keeps its hash and
// costs no southbound bytes.
type BucketResource struct {
	// Key is the bucket's canonical dispatch key ("tenant|src|dst", "*"
	// for wildcards).
	Key string
	// Tenant is the exact source tenant, or "" for wildcard-tenant
	// buckets.
	Tenant string
	// Service is the exact destination service, or "" for wildcard-dst
	// buckets — what ScopeService subscription filtering keys on.
	Service string
	// Members is the bucket's rule count (drives payload sizing).
	Members int
	// Hash is the content address over the members' canonical forms.
	Hash uint64
}

// Resources lists every non-empty bucket as a content-addressed resource,
// sorted by key so the snapshot build is deterministic.
func (c *Compiler) Resources() []BucketResource {
	c.mu.RLock()
	defer c.mu.RUnlock()
	var out []BucketResource
	add := func(m map[key3]*bucket) {
		for k, b := range m {
			if len(b.members) == 0 {
				continue
			}
			r := BucketResource{Key: k.canon(), Members: len(b.members), Hash: b.hash}
			if k.t != wild {
				r.Tenant = k.t
			}
			if k.d != wild {
				r.Service = k.d
			}
			out = append(out, r)
		}
	}
	for _, m := range c.table.shards {
		add(m)
	}
	add(c.table.global)
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// Fingerprint digests the compiled table — bucket keys, sorted rule canon
// strings, shard assignments — into one value. Equal fingerprints mean
// byte-identical compiled state; tests assert it is stable across full and
// incremental compilation and across runs.
func (c *Compiler) Fingerprint() uint64 {
	resources := c.Resources()
	c.mu.RLock()
	tenants := make([]string, 0, len(c.table.assign))
	for t := range c.table.assign {
		tenants = append(tenants, t)
	}
	c.mu.RUnlock()
	sort.Strings(tenants)
	h := uint64(14695981039346656037)
	for _, r := range resources {
		h = fnv64Fold(h, r.Key)
		h = fnv64Fold(h, fmt.Sprintf("%d/%x", r.Members, r.Hash))
	}
	for _, t := range tenants {
		c.mu.RLock()
		idxs := c.table.assign[t]
		c.mu.RUnlock()
		h = fnv64Fold(h, fmt.Sprintf("%s=%v", t, idxs))
	}
	return h
}

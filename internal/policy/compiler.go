package policy

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
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
	// patterns interns the installed intentions' regular expressions.
	patterns Patterns
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
	// Compile outside the lock: predicate validation and regex interning are
	// per-change work, not per-reader stalls. The new predicates take their
	// pattern references before the replaced ones drop theirs, so a pattern
	// that stays in use is never compiled again.
	prepared := make([]*compiled, 0, len(upserts))
	for i := range upserts {
		cc, err := prepare(upserts[i], &c.patterns)
		if err != nil {
			for _, p := range prepared {
				c.patterns.Release(p.in.predicates()...)
			}
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
			touched[c.unplace(old)] = struct{}{}
			delete(c.intentions, id)
		}
	}
	for _, cc := range prepared {
		if old, ok := c.intentions[cc.in.ID]; ok {
			touched[c.unplace(old)] = struct{}{}
		}
		cc.order = c.seq
		c.seq++
		touched[c.place(cc)] = struct{}{}
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

// Patterns is the intern table the compiler's intentions share their
// regular expressions through. Whatever installs predicates beside the
// compiler's (l7's route rules) interns them here too, so every distinct
// pattern of the gateway is compiled once.
func (c *Compiler) Patterns() *Patterns { return &c.patterns }

// prepare validates and compiles one intention: predicates interned in p and
// the deny reason pre-concatenated. The header list is copied first, so the
// caller's slice is never written.
func prepare(in Intention, p *Patterns) (*compiled, error) {
	if in.ID == "" {
		return nil, fmt.Errorf("policy: intention %q has no ID", in.Name)
	}
	in.Headers = slices.Clone(in.Headers)
	if err := p.Intern(in.predicates()...); err != nil {
		return nil, err
	}
	cc := &compiled{
		in:      in,
		srcPred: in.Src.Op != OpExact && in.Src.Op != OpAny,
		dstPred: in.Dst.Op != OpExact && in.Dst.Op != OpAny,
	}
	if in.Action == ActionDeny {
		cc.denyReason = "denied by rule " + in.Name
	}
	return cc, nil
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

// place appends a compiled intention to its bucket, creating the bucket (and
// the tenant's shard assignment with its first bucket), and updates the
// allow-existence counters. The bucket is sorted separately (rebuild), once
// per touched bucket per Apply. Returns the bucket's key.
func (c *Compiler) place(cc *compiled) key3 {
	k := cc.key()
	if k.t != wild && c.table.assign[k.t] == nil {
		c.table.assign[k.t] = assignShards(k.t, c.cfg)
	}
	m := c.table.home(k)
	b := m[k]
	if b == nil {
		b = &bucket{}
		m[k] = b
		if k.t != wild {
			c.table.buckets[k.t]++
		}
	}
	b.rules = append(b.rules, cc)
	if cc.in.Action == ActionAllow {
		if k.d == wild {
			c.table.allowAnyDst++
		} else {
			c.table.allowByDst[k.d]++
		}
	}
	return k
}

// unplace tombstones a compiled intention in its bucket, to be compacted by
// the bucket's rebuild, updates the counters and releases its patterns.
// Returns the bucket's key.
func (c *Compiler) unplace(cc *compiled) key3 {
	k := cc.key()
	cc.removed = true
	c.patterns.Release(cc.in.predicates()...)
	if cc.in.Action == ActionAllow {
		if k.d == wild {
			c.table.allowAnyDst--
		} else {
			if c.table.allowByDst[k.d]--; c.table.allowByDst[k.d] == 0 {
				delete(c.table.allowByDst, k.d)
			}
		}
	}
	return k
}

// rebuild compacts one bucket's tombstones, re-sorts it and recomputes its
// content hash, removing the bucket entirely when it emptied — and with a
// tenant's last bucket, the tenant's shard assignment. Returns the bucket's
// member count.
func (c *Compiler) rebuild(k key3) int {
	m := c.table.home(k)
	b := m[k]
	if b == nil {
		return 0
	}
	b.rules = slices.DeleteFunc(b.rules, func(cc *compiled) bool { return cc.removed })
	if len(b.rules) == 0 {
		delete(m, k)
		if k.t != wild {
			if c.table.buckets[k.t]--; c.table.buckets[k.t] == 0 {
				delete(c.table.buckets, k.t)
				delete(c.table.assign, k.t)
			}
		}
		return 0
	}
	// beats is a strict total order (unique installation sequence), so the
	// sorted view is independent of placement order.
	slices.SortFunc(b.rules, func(x, y *compiled) int {
		switch {
		case x.beats(y):
			return -1
		case y.beats(x):
			return 1
		}
		return 0
	})
	h := uint64(fnvOffset)
	for _, cc := range b.rules {
		h = cc.in.fold(h)
	}
	b.hash = h
	return len(b.rules)
}

// fnv64Fold folds one string into a running FNV-1a hash, closing it with a
// 0xff terminator.
func fnv64Fold(h uint64, s string) uint64 {
	return fnvByte(fnvString(h, s), 0xff)
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
		touched[c.place(cc)] = struct{}{}
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
			if len(b.rules) > st.MaxBucket {
				st.MaxBucket = len(b.rules)
			}
			if global {
				st.GlobalRules += len(b.rules)
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
	return c.resources()
}

// resources is Resources under the caller's lock.
func (c *Compiler) resources() []BucketResource {
	var out []BucketResource
	add := func(m map[key3]*bucket) {
		for k, b := range m {
			r := BucketResource{Key: k.canon(), Members: len(b.rules), Hash: b.hash}
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
	slices.SortFunc(out, func(a, b BucketResource) int { return strings.Compare(a.Key, b.Key) })
	return out
}

// Fingerprint digests the compiled table — bucket keys, member counts and
// content hashes, shard assignments — into one value, read under one lock.
// Equal fingerprints mean byte-identical compiled state; tests assert it is
// stable across full and incremental compilation and across runs.
func (c *Compiler) Fingerprint() uint64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	h := uint64(fnvOffset)
	for _, r := range c.resources() {
		h = fnv64Fold(h, r.Key)
		h = fnv64Fold(h, fmt.Sprintf("%d/%x", r.Members, r.Hash))
	}
	tenants := make([]string, 0, len(c.table.assign))
	for t := range c.table.assign {
		tenants = append(tenants, t)
	}
	slices.Sort(tenants)
	for _, t := range tenants {
		h = fnv64Fold(h, fmt.Sprintf("%s=%v", t, c.table.assign[t]))
	}
	return h
}

package policy

import (
	"bytes"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync"
)

// Compiler owns the intention set and its compiled dispatch table. Apply
// mutates incrementally — only the buckets a change touches are rebuilt —
// and Eval is safe for concurrent use against a mutating compiler (one
// writer, many readers).
type Compiler struct {
	mu    sync.RWMutex
	table *Table
	// intentions is the authoritative set by ID.
	intentions map[string]*compiled
	seq        int
	// patterns interns the installed intentions' regular expressions.
	patterns Patterns
	// changed collects the buckets Apply touched since the last Changes
	// call; nil until TrackChanges, so an untracked compiler records
	// nothing.
	changed map[key3]struct{}
}

// NewCompiler returns an empty compiler.
func NewCompiler() *Compiler {
	return &Compiler{table: newTable(), intentions: make(map[string]*compiled)}
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
//
// The batch's compiled intentions share one slab, their deny reasons one
// string (denyReasons), and the lists of the buckets it creates or grows
// one array (reserve, fill). A slab and its reasons live until the last
// intention of the batch is replaced or deleted.
func (c *Compiler) Apply(deletes []string, upserts []Intention) (ApplyStats, error) {
	// Compile outside the lock: predicate validation and regex interning are
	// per-change work, not per-reader stalls. The new predicates take their
	// pattern references before the replaced ones drop theirs, so a pattern
	// that stays in use is never compiled again.
	slab := make([]compiled, len(upserts))
	for i := range upserts {
		if err := prepare(&slab[i], &upserts[i], &c.patterns); err != nil {
			var buf predicateBuf
			for j := range slab[:i] {
				c.patterns.Release(slab[j].in.appendPredicates(buf[:0])...)
			}
			return ApplyStats{}, err
		}
	}
	denyReasons(slab)

	c.mu.Lock()
	defer c.mu.Unlock()
	st := ApplyStats{Upserts: len(upserts), Deletes: len(deletes)}
	touched := make(map[key3]work)
	for _, id := range deletes {
		if old, ok := c.intentions[id]; ok {
			c.touch(touched, c.unplace(old))
			delete(c.intentions, id)
		}
	}
	for i := range slab {
		cc := &slab[i]
		if old, ok := c.intentions[cc.in.ID]; ok {
			c.touch(touched, c.unplace(old))
		}
		cc.order = c.seq
		c.seq++
		c.place(touched, cc)
		c.intentions[cc.in.ID] = cc
	}
	arena := reserve(touched)
	for i := range slab {
		arena = fill(touched, arena, &slab[i])
	}
	for k, w := range touched {
		st.TouchedBuckets++
		st.RebuiltRules += c.rebuild(k, w.bucket)
	}
	c.record(touched)
	return st, nil
}

// predicateBuf is the stack array an intention's predicates are listed in
// for Intern and Release: the four fixed ones and up to four header
// matches before the list spills to the heap.
type predicateBuf [8]*Match

// work is one bucket of an Apply's working set: its working copy, taken
// from the table on the bucket's first touch, and how many of the batch's
// intentions place into it.
type work struct {
	bucket
	add int
}

// touch adds the key's bucket to the Apply's working set, as the table
// holds it, unless the set has it already.
func (c *Compiler) touch(touched map[key3]work, k key3) {
	if _, ok := touched[k]; !ok {
		touched[k] = work{bucket: c.table.lookup(k)}
	}
}

// record adds the touched buckets to the change feed when one is tracked.
func (c *Compiler) record(touched map[key3]work) {
	if c.changed == nil {
		return
	}
	for k := range touched {
		c.changed[k] = struct{}{}
	}
}

// Patterns is the intern table the compiler's intentions share their
// regular expressions through. Whatever installs predicates beside the
// compiler's (l7's route rules) interns them here too, so every distinct
// pattern of the gateway is compiled once.
func (c *Compiler) Patterns() *Patterns { return &c.patterns }

// prepare validates and compiles one intention into cc, with the compiled
// copy's predicates interned in p. The header list is copied first, so the
// caller's intention is never written. A deny's reason is the caller's to
// set.
func prepare(cc *compiled, in *Intention, p *Patterns) error {
	if in.ID == "" {
		return fmt.Errorf("policy: intention %q has no ID", in.Name)
	}
	*cc = compiled{
		in:      *in,
		srcPred: in.Src.Op != OpExact && in.Src.Op != OpAny,
		dstPred: in.Dst.Op != OpExact && in.Dst.Op != OpAny,
	}
	cc.in.Headers = slices.Clone(in.Headers)
	var buf predicateBuf
	return p.Intern(cc.in.appendPredicates(buf[:0])...)
}

// denyPrefix begins every deny intention's reason; the rule's name ends it.
const denyPrefix = "denied by rule "

// denyReasons sets the reason of every deny intention in slab, each a
// substring of one string built for the whole batch.
func denyReasons(slab []compiled) {
	size := 0
	for i := range slab {
		if slab[i].in.Action == ActionDeny {
			size += len(denyPrefix) + len(slab[i].in.Name)
		}
	}
	var b strings.Builder
	b.Grow(size)
	for i := range slab {
		if slab[i].in.Action == ActionDeny {
			b.WriteString(denyPrefix)
			b.WriteString(slab[i].in.Name)
		}
	}
	all := b.String()
	for i := range slab {
		if cc := &slab[i]; cc.in.Action == ActionDeny {
			n := len(denyPrefix) + len(cc.in.Name)
			cc.denyReason, all = all[:n], all[n:]
		}
	}
}

// place counts a compiled intention toward its bucket's additions in
// touched and updates the allow-existence counters. reserve sizes the
// bucket's list from the count, fill appends the intention to it, and
// rebuild sorts and stores it, once per touched bucket per Apply.
func (c *Compiler) place(touched map[key3]work, cc *compiled) {
	k := cc.key()
	w, ok := touched[k]
	if !ok {
		w.bucket = c.table.lookup(k)
	}
	w.add++
	touched[k] = w
	if cc.in.Action == ActionAllow {
		if k.d == wild {
			c.table.allowAnyDst++
		} else {
			c.table.allowByDst[k.d]++
		}
	}
}

// reserve compacts the list of every touched bucket with additions of its
// tombstones and returns one array with room for the lists whose spare
// capacity cannot hold their additions, which fill carves from it.
func reserve(touched map[key3]work) []*compiled {
	size := 0
	for k, w := range touched {
		if w.add == 0 {
			continue
		}
		w.rules = slices.DeleteFunc(w.rules, (*compiled).isRemoved)
		touched[k] = w
		if cap(w.rules)-len(w.rules) < w.add {
			size += len(w.rules) + w.add
		}
	}
	return make([]*compiled, size)
}

// fill appends a placed intention to its bucket's list and returns what is
// left of arena. A list that cannot hold the bucket's outstanding additions
// moves first into the next region of arena, sized to them and capped at
// its own end, so that an append past it — a later Apply's fill — copies
// out and never writes into the neighbouring region. Regions are carved in
// batch order. An intention that a later upsert of the same batch replaced
// is left out.
func fill(touched map[key3]work, arena []*compiled, cc *compiled) []*compiled {
	if cc.removed {
		return arena
	}
	k := cc.key()
	w := touched[k]
	if cap(w.rules)-len(w.rules) < w.add {
		end := len(w.rules) + w.add
		w.rules = append(arena[:0:end], w.rules...)
		arena = arena[end:]
	}
	w.rules = append(w.rules, cc)
	w.add--
	touched[k] = w
	return arena
}

// unplace tombstones a compiled intention in its bucket, to be compacted by
// the bucket's rebuild, updates the counters and releases its patterns.
// Returns the bucket's key.
func (c *Compiler) unplace(cc *compiled) key3 {
	k := cc.key()
	cc.removed = true
	var buf predicateBuf
	c.patterns.Release(cc.in.appendPredicates(buf[:0])...)
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

// rebuild compacts the working copy b of one bucket's tombstones, re-sorts
// it, recomputes its content hash and stores it under k, or removes the
// bucket entirely when it emptied. Returns the bucket's member count.
func (c *Compiler) rebuild(k key3, b bucket) int {
	b.rules = slices.DeleteFunc(b.rules, (*compiled).isRemoved)
	if len(b.rules) == 0 {
		c.table.remove(k)
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
	c.table.store(k, b)
	return len(b.rules)
}

// Full rebuilds the entire table from the intention set — the baseline
// incremental recompilation is measured against — through the same
// placement as Apply. Returns the number of buckets built.
func (c *Compiler) Full() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.table = newTable()
	touched := make(map[key3]work)
	for _, cc := range c.intentions {
		c.place(touched, cc)
	}
	arena := reserve(touched)
	for _, cc := range c.intentions {
		arena = fill(touched, arena, cc)
	}
	for k, w := range touched {
		c.rebuild(k, w.bucket)
	}
	c.record(touched)
	return len(touched)
}

// Eval resolves one request against the compiled table.
func (c *Compiler) Eval(q Query) Verdict {
	c.mu.RLock()
	v := c.table.eval(&q)
	c.mu.RUnlock()
	return v
}

// CandidateRules counts the rules on a query's probe path — the quantity
// lookup cost scales with. Another tenant's rules never add to it: tests
// pin the tenant isolation claim on it.
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
}

// Stats computes the table's current shape.
func (c *Compiler) Stats() TableStats {
	c.mu.RLock()
	defer c.mu.RUnlock()
	st := TableStats{Intentions: len(c.intentions)}
	c.table.each(func(k key3, b bucket) {
		st.Buckets++
		st.MaxBucket = max(st.MaxBucket, len(b.rules))
		if k.t == wild {
			st.GlobalRules += len(b.rules)
		}
	})
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
	out := make([]BucketResource, 0, c.table.size())
	c.table.each(func(k key3, b bucket) { out = append(out, bucketResource(k, b)) })
	slices.SortFunc(out, func(a, b BucketResource) int { return strings.Compare(a.Key, b.Key) })
	return out
}

// bucketResource names one bucket as a resource; the zero bucket (one that
// emptied) has no members.
func bucketResource(k key3, b bucket) BucketResource {
	r := BucketResource{Key: k.canon(), Members: len(b.rules), Hash: b.hash}
	if k.t != wild {
		r.Tenant = k.t
	}
	if k.d != wild {
		r.Service = k.d
	}
	return r
}

// TrackChanges starts the compiler's change feed: from now on every Apply
// (and Full) records the buckets it touches until Changes drains them. It is
// how a configpush distributor learns what a flush must ship without listing
// the table; a compiler no distributor tracks records nothing.
func (c *Compiler) TrackChanges() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.changed == nil {
		c.changed = make(map[key3]struct{})
	}
}

// Changes drains the change feed: every bucket touched since TrackChanges
// or the previous Changes, as its current resource — Members 0 when the
// bucket emptied and is gone — sorted by key.
func (c *Compiler) Changes() []BucketResource {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]BucketResource, 0, len(c.changed))
	for k := range c.changed {
		out = append(out, bucketResource(k, c.table.lookup(k)))
	}
	clear(c.changed)
	slices.SortFunc(out, func(a, b BucketResource) int { return strings.Compare(a.Key, b.Key) })
	return out
}

// Fingerprint digests the compiled table — bucket keys, member counts and
// content hashes — into one value, read under one lock. Equal fingerprints
// mean byte-identical compiled state; tests assert it is stable across full
// and incremental compilation and across runs. The buckets fold in the order
// of their canonical keys, each key written once into one arena sized up
// front; the field folded after each key is the text "members/hex-hash",
// built in one stack buffer. Its allocations do not grow with the table.
func (c *Compiler) Fingerprint() uint64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	type keyed struct {
		off, end int // the canonical key is arena[off:end]
		members  int
		hash     uint64
	}
	size := 0
	c.table.each(func(k key3, _ bucket) { size += k.canonLen() })
	arena := make([]byte, 0, size)
	all := make([]keyed, 0, c.table.size())
	c.table.each(func(k key3, b bucket) {
		off := len(arena)
		arena = k.appendCanon(arena)
		all = append(all, keyed{off, len(arena), len(b.rules), b.hash})
	})
	slices.SortFunc(all, func(x, y keyed) int {
		return bytes.Compare(arena[x.off:x.end], arena[y.off:y.end])
	})
	h := uint64(fnvOffset)
	var buf [64]byte
	for _, e := range all {
		h = fnvByte(fnvBytes(h, arena[e.off:e.end]), 0xff)
		b := strconv.AppendInt(buf[:0], int64(e.members), 10)
		b = append(b, '/')
		b = strconv.AppendUint(b, e.hash, 16)
		h = fnvByte(fnvBytes(h, b), 0xff)
	}
	return h
}

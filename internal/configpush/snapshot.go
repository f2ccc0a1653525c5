package configpush

import (
	"fmt"
	"slices"
	"strings"
	"time"

	"canalmesh/internal/cluster"
	"canalmesh/internal/controlplane"
)

// Snapshot is one immutable, monotonically versioned view of the mesh
// configuration: every resource the control plane would serve at that
// version, in a persistent key-sorted tree (tree.go) that shares every
// subtree a version did not change with the versions before it.
type Snapshot struct {
	Version uint64
	// At is the virtual time the snapshot was built (published).
	At time.Duration

	res *node[Resource]

	// Running byte sums a full sync reads instead of walking the
	// resources: per kind, identity bytes per hosting node, and policy
	// bytes per destination service ("" for wildcard-destination buckets).
	kindBytes    [numKinds]int64
	nodeIdentity *node[int64]
	svcPolicy    *node[int64]
}

// next publishes the version that results from applying a change set to s
// (a nil s is the empty snapshot). The change set is in arrival order — a
// later change to a key wins — and changes that would leave s as it is
// drop out, so every subtree they would have copied stays shared. The cost
// is O(changes · log N), never a walk of s.
func (s *Snapshot) next(version uint64, at time.Duration, changes []op[Resource]) *Snapshot {
	ns := &Snapshot{Version: version, At: at}
	if s != nil {
		*ns = *s
		ns.Version, ns.At = version, at
	}
	slices.SortStableFunc(changes, func(a, b op[Resource]) int { return strings.Compare(a.key, b.key) })
	ops := changes[:0]
	nodeDelta, svcDelta := map[string]int64{}, map[string]int64{}
	account := func(r Resource, sign int64) {
		b := sign * int64(r.Bytes)
		ns.kindBytes[r.Kind] += b
		switch r.Kind {
		case KindIdentity:
			nodeDelta[r.Node] += b
		case KindPolicy:
			svcDelta[r.Service] += b
		}
	}
	for i, c := range changes {
		if i+1 < len(changes) && changes[i+1].key == c.key {
			continue // superseded by a later change to the key
		}
		old, had := ns.res.get(c.key)
		if (c.del && !had) || (!c.del && had && old == c.val) {
			continue
		}
		if had {
			account(old, -1)
		}
		if !c.del {
			account(c.val, 1)
		}
		ops = append(ops, c)
	}
	ns.res = ns.res.with(ops)
	ns.nodeIdentity = addSums(ns.nodeIdentity, nodeDelta)
	ns.svcPolicy = addSums(ns.svcPolicy, svcDelta)
	return ns
}

// addSums applies per-name byte deltas to a sum tree, dropping names whose
// sum returns to zero.
func addSums(t *node[int64], deltas map[string]int64) *node[int64] {
	ops := make([]op[int64], 0, len(deltas))
	for name, d := range deltas {
		if d != 0 {
			v, _ := t.get(name)
			ops = append(ops, op[int64]{key: name, val: v + d, del: v+d == 0})
		}
	}
	slices.SortFunc(ops, func(a, b op[int64]) int { return strings.Compare(a.key, b.key) })
	return t.with(ops)
}

// Len returns the number of resources in the snapshot.
func (s *Snapshot) Len() int { return s.res.size() }

// Resource returns the resource stored under key.
func (s *Snapshot) Resource(key string) (Resource, bool) { return s.res.get(key) }

// Resources returns the snapshot's resources in key order — the
// deterministic iteration importers (the federation layer's peer views)
// rebuild their local state from.
func (s *Snapshot) Resources() []Resource {
	return s.res.appendTo(make([]Resource, 0, s.res.size()))
}

// scopeBytes sums the serialized size of the scope's matching resources —
// the payload of a full sync at this snapshot — from the running sums.
func (s *Snapshot) scopeBytes(sc Scope) int64 {
	kb := &s.kindBytes
	switch sc.Kind {
	case ScopeMesh:
		return kb[KindEndpoint] + kb[KindRuleSet] + kb[KindPolicy]
	case ScopeEndpoints:
		return kb[KindEndpoint]
	case ScopeService:
		n := kb[KindEndpoint]
		if r, ok := s.res.get(Resource{Kind: KindRuleSet, Name: sc.Name}.Key()); ok {
			n += int64(r.Bytes)
		}
		p, _ := s.svcPolicy.get(sc.Name)
		n += p
		if sc.Name != "" {
			p, _ = s.svcPolicy.get("")
			n += p
		}
		return n
	case ScopeNodeIdentity:
		n, _ := s.nodeIdentity.get(sc.Name)
		return n
	default:
		return 0
	}
}

// Delta is the structural diff between two snapshot versions: the minimal
// resource set a subscriber at From needs to reach To. Changed carries
// added and updated resources in key order; Removed carries the deleted
// resources as last seen in the base snapshot, so scope matching (which
// needs the hosting node or service) works on removals too.
type Delta struct {
	From, To uint64
	Changed  []Resource
	Removed  []Resource
}

// Diff computes from→to. A nil from means "empty snapshot": everything in
// to is an addition (the shape of a full bootstrap). It is a merge walk of
// the two trees in key order that steps over every subtree the two
// versions share by pointer, so diffing versions of one lineage costs
// O(changed · log N); a key changed and changed back (A→B→A) compares
// equal and cancels.
func Diff(from, to *Snapshot) *Delta {
	d := &Delta{To: to.Version}
	var ft *node[Resource]
	if from != nil {
		d.From, ft = from.Version, from.res
	}
	a, b := newCursor(ft), newCursor(to.res)
	for !a.done() || !b.done() {
		if !a.done() && !b.done() {
			if la, lb, ok := shared(a, b); ok {
				a.skip(la)
				b.skip(lb)
				continue
			}
		}
		switch {
		case b.done() || (!a.done() && a.cur().key < b.cur().key):
			d.Removed = append(d.Removed, a.cur().val)
			a.next()
		case a.done() || b.cur().key < a.cur().key:
			d.Changed = append(d.Changed, b.cur().val)
			b.next()
		default: // same key: changed only if the content hash moved
			if a.cur().val.Hash != b.cur().val.Hash {
				d.Changed = append(d.Changed, b.cur().val)
			}
			a.next()
			b.next()
		}
	}
	return d
}

// Store retains the most recent snapshots so deltas can be served from any
// still-retained version. Subscribers acked before the retention window
// must full-resync — exactly the fallback real delta protocols take when a
// reconnecting client's version is too stale to diff against.
type Store struct {
	retain int
	snaps  []*Snapshot // ascending versions, len <= retain

	// diffCache memoizes head-reaching diffs. Bounded by eviction below.
	diffCache map[diffKey]*Delta
}

// diffKey names one memoized diff.
type diffKey struct{ from, to uint64 }

// NewStore returns a store retaining the given number of versions
// (minimum 2: head plus one diff base).
func NewStore(retain int) *Store {
	if retain < 2 {
		retain = 2
	}
	return &Store{retain: retain, diffCache: make(map[diffKey]*Delta)}
}

// Append publishes a snapshot as the new head. Versions must be
// monotonically increasing; older snapshots beyond the retention window are
// evicted and the diff cache reset (cached diffs reference evicted bases).
func (st *Store) Append(s *Snapshot) {
	if h := st.Head(); h != nil && s.Version <= h.Version {
		panic(fmt.Sprintf("configpush: snapshot version %d not after head %d", s.Version, h.Version))
	}
	st.snaps = append(st.snaps, s)
	if len(st.snaps) > st.retain {
		st.snaps = st.snaps[len(st.snaps)-st.retain:]
		st.diffCache = make(map[diffKey]*Delta)
	}
}

// Head returns the newest snapshot, or nil.
func (st *Store) Head() *Snapshot {
	if len(st.snaps) == 0 {
		return nil
	}
	return st.snaps[len(st.snaps)-1]
}

// Get returns the snapshot at version, or nil if it was never published or
// has been evicted.
func (st *Store) Get(version uint64) *Snapshot {
	for _, s := range st.snaps {
		if s.Version == version {
			return s
		}
	}
	return nil
}

// DiffToHead returns the delta from the given version to head, memoized so
// every subscriber at the same version shares one build. It returns nil
// when the base version is no longer retained (caller must full-resync).
func (st *Store) DiffToHead(from uint64) *Delta {
	head := st.Head()
	if head == nil {
		return nil
	}
	base := st.Get(from)
	if base == nil {
		return nil
	}
	key := diffKey{from, head.Version}
	if d, ok := st.diffCache[key]; ok {
		return d
	}
	d := Diff(base, head)
	st.diffCache[key] = d
	return d
}

// podResources derives a pod's endpoint and identity resources.
func podResources(p *cluster.Pod, sz controlplane.Sizing) (ep, id Resource) {
	ep = Resource{
		Kind:    KindEndpoint,
		Name:    p.Name,
		Node:    p.Node.Name,
		Service: p.Service,
		Bytes:   sz.PerEndpointBytes,
		Hash:    hashOf("ep", p.Name, p.IP.String(), p.Service, p.Node.Name),
	}
	id = Resource{
		Kind:    KindIdentity,
		Name:    p.Name,
		Node:    p.Node.Name,
		Service: p.Service,
		Bytes:   sz.PerPodIdentityBytes,
		Hash:    hashOf("id", p.Name, p.IP.String()),
	}
	return ep, id
}

// ruleSetResource derives a service's rule set resource. rev distinguishes
// successive rule updates that keep the same rule count (the hash must move
// on every UpdateRoutes).
func ruleSetResource(svc *cluster.Service, sz controlplane.Sizing, rev int) Resource {
	return Resource{
		Kind:    KindRuleSet,
		Name:    svc.Name,
		Service: svc.Name,
		Bytes:   svc.L7Rules * sz.PerRuleBytes,
		Hash:    hashOf("rules", svc.Name, fmt.Sprint(svc.L7Rules), fmt.Sprint(rev)),
	}
}

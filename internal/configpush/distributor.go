package configpush

import (
	"fmt"
	"slices"
	"sort"
	"time"

	"canalmesh/internal/cluster"
	"canalmesh/internal/controlplane"
	"canalmesh/internal/policy"
	"canalmesh/internal/sim"
	"canalmesh/internal/units"
)

// Config parameterizes a Distributor.
type Config struct {
	Sim     *sim.Sim
	Cluster *cluster.Cluster
	// Resources, when set, replaces the cluster as the source of resources:
	// each flush merges the list the callback returns against head — what it
	// lists is stored, what it listed last time and no longer does is removed
	// (the policy compiler's buckets are still added). This is how
	// non-cluster publishers — the federation layer exporting a region's
	// services over a peering stream — reuse the delta/session machinery;
	// with Resources set, Cluster may be nil and the publisher drives flushes
	// via Notify.
	Resources func() []Resource
	// Sizing prices resource, framing, and resync bytes and the build CPU /
	// southbound bandwidth the pushes consume.
	Sizing controlplane.Sizing
	// Model selects which subscribers SubscribeModel creates and how
	// dynamic pods map to sessions.
	Model controlplane.Model
	// Debounce is the coalescing window: API events arriving within it
	// merge into one snapshot build. Zero builds on every event.
	Debounce time.Duration
	// Policy, when set, contributes the compiled intention dispatch buckets
	// (one content-addressed resource per bucket) to every snapshot. New
	// turns on the compiler's change feed, so a flush ships the buckets
	// Apply touched without listing the table. Call PolicyChanged after
	// mutating the compiler so the change is pushed.
	Policy *policy.Compiler
	// FullPush disables deltas: every push sends the subscriber's complete
	// scope, the §2.1 baseline the delta path is measured against.
	FullPush bool
}

// The nack retry backoff starts at backoffBase and doubles per consecutive
// nack up to backoffMax.
const (
	backoffBase = 200 * time.Millisecond
	backoffMax  = 10 * time.Second
)

// retainVersions is how many snapshot versions stay diffable: a subscriber
// acked before the window full-resyncs.
const retainVersions = 8

// maxCoalesce caps, in Debounce windows, how long a re-arming window may
// extend past its earliest un-flushed event before a flush is forced, so
// sustained churn with gaps below Debounce cannot defer building
// indefinitely (istiod's PILOT_DEBOUNCE_MAX).
const maxCoalesce = 5

// Distributor owns the snapshot store, the watch sessions, and the modeled
// southbound link. It coalesces cluster events into versioned snapshot
// builds and fans each build out to every subscriber whose scope changed:
// the build and the per-scope delta are computed once per version and
// shared by all subscribers at that version.
type Distributor struct {
	cfg   Config
	store *Store

	sessions []*Session // ID-sorted; closed sessions compacted lazily
	byID     map[string]*Session
	closedN  int

	version  uint64
	routeRev map[string]int

	// The change sources a flush reads instead of rebuilding the resource
	// set: the pods and services cluster events named since the last
	// publish, and the keys the Resources callback listed at it.
	dirtyPods     []string
	dirtyServices []string
	listed        []string

	// Coalescing state of the debounce window.
	haveWork      bool
	earliestEvent time.Duration
	armed         bool
	flushAt       time.Duration

	// The southbound link is a single serialized pipe at Sizing.SouthboundBps:
	// sends queue behind linkFreeAt, and a build's payloads only start after
	// its CPU time (buildReadyAt).
	linkFreeAt   time.Duration
	buildReadyAt time.Duration

	// payloadCache shares priced payloads within one head version: every
	// subscriber of a scope at the same acked version gets one delta build,
	// and every full sync of a scope one walk over the snapshot. Reset on
	// every flush.
	payloadCache map[payloadKey]Payload

	records map[uint64]*versionRecord
	order   []uint64 // record versions in publish order

	events int
	sends  int

	deltaBytes  int64
	resyncBytes int64

	// retired accumulates the counters of compacted (closed) sessions so
	// churned-away subscribers still show up in Stats.
	retired retiredStats
}

// retiredStats folds the per-session counters of compacted sessions.
type retiredStats struct {
	sessions                     int
	acks, nacks, deltas, resyncs int
	stale                        []time.Duration
}

// New wires a distributor to the cluster's event stream. Subscribers are
// added with Subscribe or SubscribeModel; nothing is pushed until events
// arrive (or sessions bootstrap at the first flush).
func New(cfg Config) *Distributor {
	if cfg.Sim == nil {
		panic("configpush: Config.Sim is required")
	}
	if cfg.Cluster == nil && cfg.Resources == nil {
		panic("configpush: one of Config.Cluster or Config.Resources is required")
	}
	d := &Distributor{
		cfg:          cfg,
		store:        NewStore(retainVersions),
		byID:         make(map[string]*Session),
		routeRev:     make(map[string]int),
		payloadCache: make(map[payloadKey]Payload),
		records:      make(map[uint64]*versionRecord),
	}
	if cfg.Cluster != nil {
		cfg.Cluster.Watch(d.onEvent)
	}
	if cfg.Policy != nil {
		cfg.Policy.TrackChanges()
	}
	return d
}

// Store exposes the snapshot store (read-only use in tests/metrics).
func (d *Distributor) Store() *Store { return d.store }

// Version returns the latest published snapshot version.
func (d *Distributor) Version() uint64 { return d.version }

// Events returns how many raw API events arrived.
func (d *Distributor) Events() int { return d.events }

// Builds returns how many snapshot builds (coalesced flushes) ran.
func (d *Distributor) Builds() int { return len(d.order) }

// onEvent is the cluster watch callback: track the earliest un-flushed
// event for convergence accounting, record the pod or service it names for
// the next flush to re-derive, keep the session set in step with pod churn,
// and arm the debounce window.
func (d *Distributor) onEvent(e cluster.Event) {
	d.events++
	if !d.haveWork {
		d.haveWork = true
		d.earliestEvent = d.cfg.Sim.Now()
	}
	switch {
	case d.cfg.Resources != nil:
		// The callback, not the cluster, is the source of resources.
	case e.Kind == cluster.EventPodAdded || e.Kind == cluster.EventPodRemoved:
		d.dirtyPods = append(d.dirtyPods, e.Pod.Name)
	case e.Kind == cluster.EventServiceAdded || e.Kind == cluster.EventRouteUpdated:
		if e.Kind == cluster.EventRouteUpdated {
			// A new revision moves the rule set's hash even when the
			// update keeps the rule count.
			d.routeRev[e.Service.Name]++
		}
		d.dirtyServices = append(d.dirtyServices, e.Service.Name)
	}
	switch d.cfg.Model {
	case controlplane.IstioModel:
		// Sidecars live and die with their pods.
		if e.Kind == cluster.EventPodAdded {
			d.Subscribe("sidecar/"+e.Pod.Name, Scope{Kind: ScopeMesh})
		}
		if e.Kind == cluster.EventPodRemoved {
			d.Close("sidecar/" + e.Pod.Name)
		}
	case controlplane.AmbientModel:
		// Waypoints live and die with their services; node L4 proxies are
		// as static as the node set.
		if e.Kind == cluster.EventServiceAdded {
			d.Subscribe("waypoint/"+e.Service.Name, Scope{Kind: ScopeService, Name: e.Service.Name})
		}
	}
	d.schedule()
}

// Notify tells the distributor its source of truth moved without a cluster
// event: the next flush will read the change. It behaves like any other API
// event — the change coalesces into the debounce window and ships in the
// next flush as a delta. Publishers using Config.Resources
// (the federation export streams) drive every flush through it.
func (d *Distributor) Notify() {
	d.events++
	if !d.haveWork {
		d.haveWork = true
		d.earliestEvent = d.cfg.Sim.Now()
	}
	d.schedule()
}

// PolicyChanged notifies the distributor that the policy compiler's
// intention set moved; it ships in the next flush as the delta of touched
// dispatch buckets.
func (d *Distributor) PolicyChanged() { d.Notify() }

// publish appends the next version to the store: head with the change set
// the sources report applied (the first version applies everything they
// hold to the empty snapshot). It returns the previous head and the new one.
func (d *Distributor) publish(at time.Duration) (prev, snap *Snapshot) {
	prev = d.store.Head()
	all := prev == nil
	var changes []op[Resource]
	if d.cfg.Resources != nil {
		changes = d.listedChanges()
	} else {
		changes = d.clusterChanges(all)
	}
	if d.cfg.Policy != nil {
		changes = d.policyChanges(changes, all)
	}
	d.version++
	snap = prev.next(d.version, at, changes)
	d.store.Append(snap)
	return prev, snap
}

// clusterChanges re-derives the resources of the pods and services events
// named since the last publish (with all, of every pod and service): a pod
// or service the cluster no longer holds is a removal.
func (d *Distributor) clusterChanges(all bool) []op[Resource] {
	c, sz := d.cfg.Cluster, d.cfg.Sizing
	if all {
		for _, p := range c.Pods() {
			d.dirtyPods = append(d.dirtyPods, p.Name)
		}
		for _, svc := range c.Services() {
			d.dirtyServices = append(d.dirtyServices, svc.Name)
		}
	}
	out := make([]op[Resource], 0, 2*len(d.dirtyPods)+len(d.dirtyServices))
	for _, name := range d.dirtyPods {
		if p := c.Pod(name); p != nil {
			ep, id := podResources(p, sz)
			out = append(out, op[Resource]{key: ep.Key(), val: ep}, op[Resource]{key: id.Key(), val: id})
		} else {
			out = append(out, removal(KindEndpoint, name), removal(KindIdentity, name))
		}
	}
	for _, name := range d.dirtyServices {
		if svc := c.Service(name); svc != nil {
			r := ruleSetResource(svc, sz, d.routeRev[name])
			out = append(out, op[Resource]{key: r.Key(), val: r})
		} else {
			out = append(out, removal(KindRuleSet, name))
		}
	}
	d.dirtyPods, d.dirtyServices = d.dirtyPods[:0], d.dirtyServices[:0]
	return out
}

// removal is the change that deletes a resource.
func removal(k Kind, name string) op[Resource] {
	return op[Resource]{key: Resource{Kind: k, Name: name}.Key(), del: true}
}

// listedChanges merges the Resources callback's list against the previous
// one: everything listed is stored (what did not change drops out against
// head), and a key listed last time but not now is removed.
func (d *Distributor) listedChanges() []op[Resource] {
	list := d.cfg.Resources()
	out := make([]op[Resource], 0, len(list))
	listed := make([]string, 0, len(list))
	now := make(map[string]bool, len(list))
	for _, r := range list {
		k := r.Key()
		out = append(out, op[Resource]{key: k, val: r})
		listed = append(listed, k)
		now[k] = true
	}
	for _, k := range d.listed {
		if !now[k] {
			out = append(out, op[Resource]{key: k, del: true})
		}
	}
	d.listed = listed
	return out
}

// policyChanges appends the policy compiler's drained change feed (every
// bucket with all): one resource per bucket, a removal for a bucket that
// emptied.
func (d *Distributor) policyChanges(out []op[Resource], all bool) []op[Resource] {
	buckets := d.cfg.Policy.Changes()
	if all {
		buckets = d.cfg.Policy.Resources()
	}
	for _, br := range buckets {
		r := Resource{
			Kind:    KindPolicy,
			Name:    br.Key,
			Service: br.Service,
			Bytes:   br.Members * d.cfg.Sizing.PerRuleBytes,
			Hash:    br.Hash,
		}
		out = append(out, op[Resource]{key: r.Key(), val: r, del: br.Members == 0})
	}
	return out
}

// Subscribe registers a watch session. A closed session's ID may be reused;
// re-subscribing an open ID panics (it would corrupt convergence tracking).
func (d *Distributor) Subscribe(id string, scope Scope) *Session {
	if old, ok := d.byID[id]; ok && !old.closed {
		panic(fmt.Sprintf("configpush: duplicate open session %q", id))
	}
	s := &Session{ID: id, Scope: scope, connected: true}
	d.byID[id] = s
	i := sort.Search(len(d.sessions), func(i int) bool { return d.sessions[i].ID >= id })
	d.sessions = append(d.sessions, nil)
	copy(d.sessions[i+1:], d.sessions[i:])
	d.sessions[i] = s
	return s
}

// SubscribeModel creates the architecture's subscriber set from the
// cluster's current nodes, services, and pods:
//
//	istio:   one ScopeMesh session per pod (sidecars),
//	ambient: one ScopeEndpoints session per node (L4) and one ScopeService
//	         session per service (waypoint),
//	canal:   one ScopeMesh session for the mesh gateway and one
//	         ScopeNodeIdentity session per node (on-node proxies).
func (d *Distributor) SubscribeModel() {
	switch d.cfg.Model {
	case controlplane.IstioModel:
		for _, p := range d.cfg.Cluster.Pods() {
			d.Subscribe("sidecar/"+p.Name, Scope{Kind: ScopeMesh})
		}
	case controlplane.AmbientModel:
		for _, n := range d.cfg.Cluster.Nodes() {
			d.Subscribe("l4/"+n.Name, Scope{Kind: ScopeEndpoints})
		}
		for _, svc := range d.cfg.Cluster.Services() {
			d.Subscribe("waypoint/"+svc.Name, Scope{Kind: ScopeService, Name: svc.Name})
		}
	case controlplane.CanalModel:
		d.Subscribe("gateway", Scope{Kind: ScopeMesh})
		for _, n := range d.cfg.Cluster.Nodes() {
			d.Subscribe("node/"+n.Name, Scope{Kind: ScopeNodeIdentity, Name: n.Name})
		}
	}
}

// Session returns the session with the given ID, or nil.
func (d *Distributor) Session(id string) *Session { return d.byID[id] }

// Sessions returns the open sessions in ID order.
func (d *Distributor) Sessions() []*Session {
	out := make([]*Session, 0, len(d.sessions)-d.closedN)
	for _, s := range d.sessions {
		if !s.closed {
			out = append(out, s)
		}
	}
	return out
}

// SyncAll publishes the cluster's current state as the initial snapshot and
// marks every session synced to it at zero southbound cost — the steady
// state before a measured churn window, where configuration was distributed
// long ago. Pending un-flushed events are absorbed into the baseline.
func (d *Distributor) SyncAll() {
	d.publish(d.cfg.Sim.Now())
	for _, s := range d.sessions {
		if !s.closed {
			s.acked = d.version
		}
	}
	d.haveWork = false
}

// Close terminates a session (its pod died). Versions it still owed stop
// waiting for it.
func (d *Distributor) Close(id string) {
	s, ok := d.byID[id]
	if !ok || s.closed {
		return
	}
	s.closed = true
	s.connected = false
	d.closedN++
	d.settle(s, d.version, d.cfg.Sim.Now())
}

// Disconnect detaches a session (partition): it stops receiving pushes and
// in-flight deliveries to it are lost. Versions it owes stay unconverged —
// a partitioned subscriber IS stale configuration.
func (d *Distributor) Disconnect(id string) {
	s := d.byID[id]
	if s == nil || s.closed {
		return
	}
	s.connected = false
	s.inflight = false
	s.attempts = 0
	s.epoch++
}

// Reconnect re-attaches a session and immediately serves it: a single
// combined delta from its acked version if that version is still retained,
// otherwise a full resync — never a replay of every missed delta.
func (d *Distributor) Reconnect(id string) {
	s := d.byID[id]
	if s == nil || s.closed || s.connected {
		return
	}
	s.connected = true
	d.catchUp(s)
}

// schedule arms (or re-arms) the debounce timer: the window extends while
// events keep arriving, but never past maxCoalesce windows after
// earliestEvent — otherwise continuous churn with inter-event gaps below
// Debounce would starve flushes indefinitely (the same hazard istiod bounds
// with PILOT_DEBOUNCE_MAX).
func (d *Distributor) schedule() {
	if d.cfg.Debounce <= 0 {
		d.flush()
		return
	}
	d.flushAt = d.cfg.Sim.Now() + d.cfg.Debounce
	if cap := d.earliestEvent + maxCoalesce*d.cfg.Debounce; d.flushAt > cap {
		d.flushAt = cap
	}
	if d.armed {
		return
	}
	d.armed = true
	var wait func()
	wait = func() {
		if now := d.cfg.Sim.Now(); now < d.flushAt {
			d.cfg.Sim.At(d.flushAt, wait)
			return
		}
		d.armed = false
		d.flush()
	}
	d.cfg.Sim.At(d.flushAt, wait)
}

// flush publishes one snapshot from the coalesced window and fans it out.
// This is the build-once-fan-out-many point: one change set applied to
// head, one structural diff, one priced payload per scope — shared by every
// subscriber at the previous version. Its cost follows what changed and
// who subscribes, not the size of the configuration.
func (d *Distributor) flush() {
	if !d.haveWork {
		return
	}
	d.haveWork = false
	now := d.cfg.Sim.Now()
	eventAt := d.earliestEvent

	prev, snap := d.publish(now)
	delta := Diff(prev, snap)
	d.payloadCache = make(map[payloadKey]Payload)

	// Build CPU: deltas serialize only what changed; the full-push baseline
	// re-serializes the complete set every flush (rebuild-per-flush).
	var builtBytes int64
	if d.cfg.FullPush {
		builtBytes = snap.scopeBytes(Scope{Kind: ScopeMesh})
	} else {
		for _, r := range delta.Changed {
			builtBytes += int64(r.Bytes)
		}
		builtBytes += int64(len(delta.Removed)) * removedKeyBytes
	}
	d.buildReadyAt = now + time.Duration(builtBytes/1024)*d.cfg.Sizing.BuildCPUPerKB

	vr := &versionRecord{version: d.version, eventAt: eventAt, publishAt: now}
	d.records[d.version] = vr
	d.order = append(d.order, d.version)

	d.compact()
	for _, sess := range d.sessions {
		if sess.closed || !sess.connected {
			continue
		}
		d.dispatch(sess, vr, snap, delta)
	}
	if vr.pending == 0 && !vr.converged {
		// Nothing to push (or everyone advanced silently): the version
		// converged the moment it was published.
		vr.converged = true
		vr.convergeAt = now
	}
}

// dispatch routes one published version to one session: bootstrap, shared
// delta, silent advance, or — if a payload is already in flight — a mark
// that the session fell behind (it will catch up from its acked version
// when the in-flight delivery completes, superseding the intermediate
// versions rather than replaying them).
func (d *Distributor) dispatch(sess *Session, vr *versionRecord, snap *Snapshot, delta *Delta) {
	if sess.acked == 0 && !sess.inflight {
		// New subscriber: full bootstrap of the head version.
		d.target(sess, vr)
		d.send(sess, d.fullSync(snap, sess.Scope))
		return
	}
	scoped := d.scopedPayload(sess.Scope, delta)
	if scoped.Changed+scoped.Removed == 0 {
		// The window didn't touch this scope: the subscriber is current by
		// construction, no bytes owed.
		if !sess.inflight && sess.acked == vr.version-1 {
			sess.acked = vr.version
		}
		return
	}
	d.target(sess, vr)
	if sess.inflight {
		sess.behind = true
		return
	}
	d.send(sess, d.payloadFrom(sess))
}

// payloadKey names one priced payload: a scope's delta From→To, or with
// full set its complete sync at version To.
type payloadKey struct {
	scope    Scope
	from, to uint64
	full     bool
}

// scopedPayload prices a delta for one scope, shared across all subscribers
// of that scope via the per-head cache.
func (d *Distributor) scopedPayload(sc Scope, delta *Delta) Payload {
	key := payloadKey{scope: sc, from: delta.From, to: delta.To}
	if p, ok := d.payloadCache[key]; ok {
		return p
	}
	p := deltaPayload(delta, sc, d.cfg.Sizing)
	d.payloadCache[key] = p
	return p
}

// fullSync prices a complete sync of the scope at snap, once per (scope,
// version): bootstraps, evicted resyncs and full-push sends at one head share
// the walk over the snapshot.
func (d *Distributor) fullSync(snap *Snapshot, sc Scope) Payload {
	key := payloadKey{scope: sc, to: snap.Version, full: true}
	if p, ok := d.payloadCache[key]; ok {
		return p
	}
	p := fullPayload(snap, sc, d.cfg.Sizing)
	d.payloadCache[key] = p
	return p
}

// payloadFrom builds the freshest payload for a session: a full scope sync
// in baseline mode or for bootstrap/evicted versions, otherwise one
// combined delta acked→head (shared through the payload cache).
func (d *Distributor) payloadFrom(sess *Session) Payload {
	head := d.store.Head()
	if d.cfg.FullPush || sess.acked == 0 {
		return d.fullSync(head, sess.Scope)
	}
	dd := d.store.DiffToHead(sess.acked)
	if dd == nil {
		// Acked version evicted: too stale to diff, resync.
		return d.fullSync(head, sess.Scope)
	}
	return d.scopedPayload(sess.Scope, dd)
}

// send reserves the southbound link and schedules delivery. The link is a
// shared serialized pipe: concurrent fan-out queues behind linkFreeAt, so
// convergence time reflects total pushed bytes, not per-target transfer.
func (d *Distributor) send(sess *Session, p Payload) {
	now := d.cfg.Sim.Now()
	start := max(now, d.linkFreeAt, d.buildReadyAt)
	transfer := units.Seconds(float64(p.Bytes) / float64(d.cfg.Sizing.SouthboundBps))
	d.linkFreeAt = start + transfer
	done := start + transfer + d.cfg.Sizing.PerTargetOverhead

	sess.inflight = true
	d.sends++
	if p.Resync {
		d.resyncBytes += p.Bytes
	} else {
		d.deltaBytes += p.Bytes
	}
	epoch := sess.epoch
	d.cfg.Sim.At(done, func() { d.deliver(sess, p, epoch) })
}

// deliver completes one send: drop (stale/closed/partitioned), nack with
// backoff, or ack and catch up if the head moved while the payload was in
// flight.
func (d *Distributor) deliver(sess *Session, p Payload, epoch int) {
	if sess.closed || sess.epoch != epoch {
		return // session died or detached while the payload was in flight
	}
	if !sess.connected {
		sess.inflight = false
		return
	}
	now := d.cfg.Sim.Now()
	if sess.failNext > 0 {
		sess.failNext--
		sess.Nacks++
		sess.attempts++
		shift := sess.attempts - 1
		if shift > 16 {
			shift = 16
		}
		backoff := backoffBase << uint(shift)
		if backoff > backoffMax {
			backoff = backoffMax
		}
		d.cfg.Sim.After(backoff, func() {
			if sess.closed || sess.epoch != epoch || !sess.connected {
				return
			}
			sess.inflight = false
			d.catchUp(sess) // retry with the freshest payload
		})
		return
	}
	sess.attempts = 0
	sess.inflight = false
	d.ack(sess, p, now)
	if sess.behind || sess.acked < d.version {
		sess.behind = false
		d.catchUp(sess)
	}
}

// ack records one acknowledged payload: advance the session, sample its
// stale-config window, and settle every owed version the ack covers.
func (d *Distributor) ack(sess *Session, p Payload, at time.Duration) {
	sess.acked = p.To
	sess.Acks++
	sess.lastAckAt = at
	sess.BytesReceived += p.Bytes
	if p.Resync {
		sess.Resyncs++
	} else {
		sess.Deltas++
	}
	// Stale window: how long this subscriber ran config missing an
	// already-arrived change — from the earliest event of the oldest
	// version it owed (or of the acked version itself) until now.
	if len(sess.owes) > 0 && sess.owes[0].version <= p.To {
		sess.staleSamples = append(sess.staleSamples, at-sess.owes[0].eventAt)
	} else if vr := d.records[p.To]; vr != nil {
		sess.staleSamples = append(sess.staleSamples, at-vr.eventAt)
	}
	d.settle(sess, p.To, at)
}

// catchUp sends a session the freshest payload from its acked version, or
// advances it silently when the missed versions never touched its scope.
func (d *Distributor) catchUp(sess *Session) {
	if sess.closed || !sess.connected || sess.inflight {
		return
	}
	head := d.store.Head()
	if head == nil || sess.acked >= head.Version {
		return
	}
	p := d.payloadFrom(sess)
	if !p.Resync && p.Changed+p.Removed == 0 {
		// The combined delta is empty for this scope (e.g. an add and a
		// remove cancelled out): current without a send.
		sess.acked = head.Version
		d.settle(sess, head.Version, d.cfg.Sim.Now())
		return
	}
	d.send(sess, p)
}

// target marks a session as owing an ack covering the version.
func (d *Distributor) target(sess *Session, vr *versionRecord) {
	vr.pending++
	sess.owes = append(sess.owes, vr)
}

// settle resolves every version the session owed up to and including upTo;
// a version converges when its last owing subscriber settles. The settled
// head is cut from the queue in place, so the queue's backing array is
// reused by target's appends rather than left behind them.
func (d *Distributor) settle(sess *Session, upTo uint64, at time.Duration) {
	n := 0
	for ; n < len(sess.owes) && sess.owes[n].version <= upTo; n++ {
		vr := sess.owes[n]
		vr.pending--
		if vr.pending == 0 && !vr.converged {
			vr.converged = true
			vr.convergeAt = at
		}
	}
	sess.owes = slices.Delete(sess.owes, 0, n)
}

// compact drops closed sessions once they outnumber the open ones, keeping
// flush fan-out linear in live subscribers under pod churn.
func (d *Distributor) compact() {
	if d.closedN*2 <= len(d.sessions) {
		return
	}
	kept := d.sessions[:0]
	for _, s := range d.sessions {
		if !s.closed {
			kept = append(kept, s)
			continue
		}
		delete(d.byID, s.ID)
		d.retired.sessions++
		d.retired.acks += s.Acks
		d.retired.nacks += s.Nacks
		d.retired.deltas += s.Deltas
		d.retired.resyncs += s.Resyncs
		d.retired.stale = append(d.retired.stale, s.staleSamples...)
	}
	d.sessions = kept
	d.closedN = 0
}

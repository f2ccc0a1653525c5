package configpush

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"canalmesh/internal/cloud"
	"canalmesh/internal/cluster"
	"canalmesh/internal/controlplane"
	"canalmesh/internal/sim"
)

// buildCluster creates a cluster with the given nodes, services and pods
// per service, spread round-robin.
func buildCluster(t *testing.T, nodes, services, podsPerService int) *cluster.Cluster {
	t.Helper()
	tn, err := cloud.NewTenant("t1", "alpha", "10.0.0.0/8", 100)
	if err != nil {
		t.Fatal(err)
	}
	c := cluster.New("c1", tn)
	for i := 0; i < nodes; i++ {
		c.AddNode(fmt.Sprintf("n%03d", i), "r1", "az1", cluster.Resources{MilliCPU: 1 << 30, MemMB: 1 << 30})
	}
	for i := 0; i < services; i++ {
		name := fmt.Sprintf("svc%02d", i)
		c.AddService(name, 80, 3)
		if _, err := c.SpreadPods(name, podsPerService, cluster.Resources{MilliCPU: 100, MemMB: 100}); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

// simNew returns a fresh seeded simulator.
func simNew(t *testing.T) *sim.Sim {
	t.Helper()
	return sim.New(1)
}

func clusterResources() cluster.Resources { return cluster.Resources{MilliCPU: 100, MemMB: 100} }

// rig builds a synced distributor over a small cluster.
func rig(t *testing.T, model controlplane.Model, debounce time.Duration, fullPush bool) (*sim.Sim, *cluster.Cluster, *Distributor) {
	t.Helper()
	s := sim.New(1)
	c := buildCluster(t, 4, 3, 4)
	d := New(Config{
		Sim: s, Cluster: c, Sizing: controlplane.DefaultSizing(),
		Model: model, Debounce: debounce, FullPush: fullPush,
	})
	d.SubscribeModel()
	d.SyncAll()
	return s, c, d
}

func addPod(t *testing.T, s *sim.Sim, c *cluster.Cluster, at time.Duration, svc string, nodeIdx int) {
	t.Helper()
	s.At(at, func() {
		if _, err := c.AddPod(svc, c.Nodes()[nodeIdx], cluster.Resources{MilliCPU: 100, MemMB: 100}); err != nil {
			t.Errorf("AddPod: %v", err)
		}
	})
}

func TestSnapshotDiffMinimal(t *testing.T) {
	c := buildCluster(t, 2, 2, 2)
	sz := controlplane.DefaultSizing()
	rev := map[string]int{}
	a := snapshotOf(nil, 1, buildResources(c, sz, rev))
	// One pod added, one route change: the diff must carry exactly the new
	// endpoint+identity and the changed ruleset, nothing else.
	if _, err := c.AddPod("svc00", c.Nodes()[0], cluster.Resources{MilliCPU: 1, MemMB: 1}); err != nil {
		t.Fatal(err)
	}
	rev["svc01"]++
	b := snapshotOf(a, 2, buildResources(c, sz, rev))
	d := Diff(a, b)
	if len(d.Removed) != 0 {
		t.Errorf("removed = %v, want none", d.Removed)
	}
	if len(d.Changed) != 3 { // endpoint + identity of the new pod, svc01 rules
		t.Fatalf("changed = %d resources, want 3: %+v", len(d.Changed), d.Changed)
	}
	kinds := map[Kind]int{}
	for _, r := range d.Changed {
		kinds[r.Kind]++
	}
	if kinds[KindEndpoint] != 1 || kinds[KindIdentity] != 1 || kinds[KindRuleSet] != 1 {
		t.Errorf("changed kinds = %v", kinds)
	}
}

func TestSnapshotDiffRemovals(t *testing.T) {
	c := buildCluster(t, 2, 1, 3)
	sz := controlplane.DefaultSizing()
	a := snapshotOf(nil, 1, buildResources(c, sz, nil))
	victim := c.Pods()[0]
	if err := c.RemovePod(victim.Name); err != nil {
		t.Fatal(err)
	}
	b := snapshotOf(a, 2, buildResources(c, sz, nil))
	d := Diff(a, b)
	if len(d.Changed) != 0 {
		t.Errorf("changed = %+v, want none", d.Changed)
	}
	if len(d.Removed) != 2 { // endpoint + identity
		t.Fatalf("removed = %d, want 2", len(d.Removed))
	}
	for _, r := range d.Removed {
		if r.Name != victim.Name {
			t.Errorf("removed %q, want %q", r.Name, victim.Name)
		}
		if r.Node != victim.Node.Name {
			t.Errorf("removed resource lost its node: %q", r.Node)
		}
	}
}

func TestStoreRetentionAndEviction(t *testing.T) {
	st := NewStore(3)
	c := buildCluster(t, 2, 1, 2)
	sz := controlplane.DefaultSizing()
	for v := uint64(1); v <= 5; v++ {
		st.Append(snapshotOf(st.Head(), v, buildResources(c, sz, nil)))
	}
	if st.Head().Version != 5 {
		t.Fatalf("head = %d", st.Head().Version)
	}
	if st.Get(2) != nil {
		t.Error("version 2 should be evicted")
	}
	if st.Get(3) == nil {
		t.Error("version 3 should be retained")
	}
	if d := st.DiffToHead(2); d != nil {
		t.Error("DiffToHead from an evicted version must be nil (forces resync)")
	}
	if d := st.DiffToHead(3); d == nil || d.From != 3 || d.To != 5 {
		t.Errorf("DiffToHead(3) = %+v", d)
	}
}

func TestScopeMatching(t *testing.T) {
	ep := Resource{Kind: KindEndpoint, Name: "p1", Node: "n1", Service: "s1"}
	id := Resource{Kind: KindIdentity, Name: "p1", Node: "n1", Service: "s1"}
	rules := Resource{Kind: KindRuleSet, Name: "s1", Service: "s1"}
	otherRules := Resource{Kind: KindRuleSet, Name: "s2", Service: "s2"}
	cases := []struct {
		sc   Scope
		r    Resource
		want bool
	}{
		{Scope{Kind: ScopeMesh}, ep, true},
		{Scope{Kind: ScopeMesh}, rules, true},
		{Scope{Kind: ScopeMesh}, id, false},
		{Scope{Kind: ScopeEndpoints}, ep, true},
		{Scope{Kind: ScopeEndpoints}, rules, false},
		{Scope{Kind: ScopeService, Name: "s1"}, rules, true},
		{Scope{Kind: ScopeService, Name: "s1"}, otherRules, false},
		{Scope{Kind: ScopeService, Name: "s1"}, ep, true},
		{Scope{Kind: ScopeNodeIdentity, Name: "n1"}, id, true},
		{Scope{Kind: ScopeNodeIdentity, Name: "n2"}, id, false},
		{Scope{Kind: ScopeNodeIdentity, Name: "n1"}, ep, false},
	}
	for _, tc := range cases {
		if got := tc.sc.Matches(tc.r); got != tc.want {
			t.Errorf("%s matches %s/%s = %v, want %v", tc.sc.Key(), tc.r.Kind, tc.r.Name, got, tc.want)
		}
	}
}

// TestCoalescingBuildsOncePerWindow pins the debounce discipline: events
// inside one window merge into one build, activity re-arms the window, a
// window mixing pod and route changes ships both in its one build, and a
// zero debounce builds on every event.
func TestCoalescingBuildsOncePerWindow(t *testing.T) {
	every := func(n int, gap time.Duration) []time.Duration {
		at := make([]time.Duration, n)
		for i := range at {
			at[i] = time.Duration(i) * gap
		}
		return at
	}
	cases := []struct {
		name        string
		debounce    time.Duration
		podAdds     []time.Duration
		routeUpdate bool // one UpdateRoutes at t=0
		builds      int
		publishAt   time.Duration // of the last build
		changed     map[Kind]int  // resources the last build's delta carries
	}{
		{name: "burst inside one window", debounce: 2 * time.Second, podAdds: every(10, 100*time.Millisecond),
			builds: 1, publishAt: 2900 * time.Millisecond, changed: map[Kind]int{KindEndpoint: 10, KindIdentity: 10}},
		{name: "activity re-arms the window", debounce: 2 * time.Second, podAdds: every(3, 1500*time.Millisecond),
			builds: 1, publishAt: 5 * time.Second, changed: map[Kind]int{KindEndpoint: 3, KindIdentity: 3}},
		{name: "mixed pod and route window", debounce: time.Second, podAdds: every(1, 0), routeUpdate: true,
			builds: 1, publishAt: time.Second, changed: map[Kind]int{KindEndpoint: 1, KindIdentity: 1, KindRuleSet: 1}},
		{name: "zero debounce builds per event", debounce: 0, podAdds: make([]time.Duration, 4),
			builds: 4, publishAt: 0, changed: map[Kind]int{KindEndpoint: 1, KindIdentity: 1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, c, d := rig(t, controlplane.CanalModel, tc.debounce, false)
			for i, at := range tc.podAdds {
				addPod(t, s, c, at, "svc00", i%4)
			}
			events := len(tc.podAdds)
			if tc.routeUpdate {
				events++
				s.At(0, func() {
					if err := c.UpdateRoutes("svc01", 7); err != nil {
						t.Errorf("UpdateRoutes: %v", err)
					}
				})
			}
			s.Run()
			if d.Builds() != tc.builds || d.Events() != events {
				t.Fatalf("builds = %d, events = %d, want %d builds from %d events", d.Builds(), d.Events(), tc.builds, events)
			}
			if at := d.records[d.Version()].publishAt; at != tc.publishAt {
				t.Errorf("last build published at %v, want %v", at, tc.publishAt)
			}
			kinds := map[Kind]int{}
			for _, r := range d.Store().DiffToHead(d.Version() - 1).Changed {
				kinds[r.Kind]++
			}
			if !reflect.DeepEqual(kinds, tc.changed) {
				t.Errorf("last delta carries %v, want %v", kinds, tc.changed)
			}
			if st := d.Stats(); st.Converged != tc.builds || st.Unconverged != 0 {
				t.Errorf("converged=%d unconverged=%d, want %d/0", st.Converged, st.Unconverged, tc.builds)
			}
		})
	}
}

// TestSameCountRouteUpdateIsPushed: a route update that keeps the service's
// rule count still moves its rule set's hash (the per-service revision), so
// it ships as a delta instead of publishing an empty one.
func TestSameCountRouteUpdateIsPushed(t *testing.T) {
	s, c, d := rig(t, controlplane.CanalModel, time.Second, false)
	s.At(0, func() {
		if err := c.UpdateRoutes("svc01", c.Service("svc01").L7Rules); err != nil {
			t.Errorf("UpdateRoutes: %v", err)
		}
	})
	s.Run()
	delta := d.Store().DiffToHead(d.Version() - 1)
	if len(delta.Changed) != 1 || delta.Changed[0].Key() != "rules/svc01" || len(delta.Removed) != 0 {
		t.Fatalf("same-count route update published %+v, want the svc01 rule set alone", delta)
	}
	if gw := d.Session("gateway"); gw.Deltas != 1 {
		t.Fatalf("gateway got %d deltas, want 1", gw.Deltas)
	}
}

// TestMaxCoalesceBoundsWindowUnderSustainedChurn: events arriving faster
// than the debounce window would re-arm it forever; the maxCoalesce cap must
// force periodic flushes so subscribers keep converging during sustained
// churn.
func TestMaxCoalesceBoundsWindowUnderSustainedChurn(t *testing.T) {
	s := simNew(t)
	c := buildCluster(t, 4, 3, 4)
	d := New(Config{
		Sim: s, Cluster: c, Sizing: controlplane.DefaultSizing(),
		Model: controlplane.CanalModel, Debounce: time.Second,
	})
	d.SubscribeModel()
	d.SyncAll()
	// 40 events at 0.75s spacing (< debounce) over 30s: an uncapped window
	// would extend to a single flush at ~30.25s; the cap of maxCoalesce
	// windows (5s) forces ~6.
	for i := 0; i < 40; i++ {
		addPod(t, s, c, time.Duration(i)*750*time.Millisecond, "svc00", i%4)
	}
	s.Run()
	if d.Builds() < 5 {
		t.Errorf("builds = %d, want >= 5 (maxCoalesce must bound the window)", d.Builds())
	}
	if d.Builds() >= 20 {
		t.Errorf("builds = %d, want coalescing below one per event", d.Builds())
	}
}

func TestDeltaTargetsOnlyTouchedScopes(t *testing.T) {
	s, c, d := rig(t, controlplane.CanalModel, time.Second, false)
	// One pod lands on node 0: only the gateway and node 0's proxy get
	// bytes; the other node proxies advance silently.
	addPod(t, s, c, 0, "svc00", 0)
	s.Run()
	gw := d.Session("gateway")
	if gw.Deltas != 1 {
		t.Errorf("gateway deltas = %d, want 1", gw.Deltas)
	}
	touched := d.Session("node/n000")
	if touched.Deltas != 1 {
		t.Errorf("touched node deltas = %d, want 1", touched.Deltas)
	}
	for i := 1; i < 4; i++ {
		sess := d.Session(fmt.Sprintf("node/n%03d", i))
		if sess.BytesReceived != 0 {
			t.Errorf("untouched node %d received %d bytes", i, sess.BytesReceived)
		}
		if sess.Acked() != d.Version() {
			t.Errorf("untouched node %d acked %d, head %d", i, sess.Acked(), d.Version())
		}
	}
}

func TestFullPushSendsWholeScope(t *testing.T) {
	_, _, dDelta := func() (*sim.Sim, *cluster.Cluster, *Distributor) {
		s, c, d := rig(t, controlplane.IstioModel, time.Second, false)
		addPod(t, s, c, 0, "svc00", 0)
		s.Run()
		return s, c, d
	}()
	_, _, dFull := func() (*sim.Sim, *cluster.Cluster, *Distributor) {
		s, c, d := rig(t, controlplane.IstioModel, time.Second, true)
		addPod(t, s, c, 0, "svc00", 0)
		s.Run()
		return s, c, d
	}()
	del, ful := dDelta.Stats(), dFull.Stats()
	if ful.TotalBytes <= del.TotalBytes {
		t.Fatalf("full push %d bytes should exceed delta %d", ful.TotalBytes, del.TotalBytes)
	}
	// One added pod against 12 existing sidecars plus its own bootstrap:
	// the delta path pays one bootstrap (full) plus tiny deltas, the full
	// path re-sends the whole mesh config to everyone.
	if ratio := float64(ful.TotalBytes) / float64(del.TotalBytes); ratio < 2 {
		t.Errorf("full/delta ratio = %.2f, want >= 2 even at toy scale", ratio)
	}
}

func TestIstioSidecarLifecycle(t *testing.T) {
	s, c, d := rig(t, controlplane.IstioModel, time.Second, false)
	before := len(d.Sessions())
	addPod(t, s, c, 0, "svc00", 1)
	s.At(10*time.Second, func() {
		if err := c.RemovePod(c.PodsOf("svc00")[0].Name); err != nil {
			t.Errorf("RemovePod: %v", err)
		}
	})
	s.Run()
	after := len(d.Sessions())
	if after != before {
		t.Errorf("sessions = %d, want %d (one added, one removed)", after, before)
	}
	st := d.Stats()
	if st.Resyncs == 0 {
		t.Error("new sidecar must bootstrap with a full resync")
	}
	if st.ClosedSessions == 0 {
		t.Error("removed pod's sidecar session must close")
	}
}

func TestVersionsAreMonotonic(t *testing.T) {
	s, c, d := rig(t, controlplane.AmbientModel, time.Second, false)
	for i := 0; i < 5; i++ {
		addPod(t, s, c, time.Duration(i)*5*time.Second, "svc01", i%4)
	}
	s.Run()
	if d.Version() != 6 { // v1 = SyncAll baseline, then 5 separated windows
		t.Errorf("version = %d, want 6", d.Version())
	}
	st := d.Stats()
	if st.Builds != 5 {
		t.Errorf("builds = %d, want 5", st.Builds)
	}
	if st.Unconverged != 0 {
		t.Errorf("unconverged = %d, want 0 after drain", st.Unconverged)
	}
}

func TestPercentile(t *testing.T) {
	samples := []time.Duration{4 * time.Second, time.Second, 3 * time.Second, 2 * time.Second}
	if p := Percentile(samples, 0.5); p != 2*time.Second {
		t.Errorf("p50 = %v", p)
	}
	if p := Percentile(samples, 0.99); p != 4*time.Second {
		t.Errorf("p99 = %v", p)
	}
	if p := Percentile(nil, 0.5); p != 0 {
		t.Errorf("empty percentile = %v", p)
	}
}

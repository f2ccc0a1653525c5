package configpush

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"canalmesh/internal/cluster"
	"canalmesh/internal/controlplane"
	"canalmesh/internal/policy"
	"canalmesh/internal/sim"
)

// oracleSnapshot is the reference the persistent snapshots are checked
// against: the whole resource list indexed into a map and a sorted key
// list, rebuilt from scratch for every version.
type oracleSnapshot struct {
	version   uint64
	resources map[string]Resource
	keys      []string // sorted
}

// newOracleSnapshot indexes the resource list by key; a later resource
// under a key replaces an earlier one.
func newOracleSnapshot(version uint64, resources []Resource) *oracleSnapshot {
	s := &oracleSnapshot{
		version:   version,
		resources: make(map[string]Resource, len(resources)),
		keys:      make([]string, 0, len(resources)),
	}
	for _, r := range resources {
		k := r.Key()
		if _, dup := s.resources[k]; !dup {
			s.keys = append(s.keys, k)
		}
		s.resources[k] = r
	}
	sort.Strings(s.keys)
	return s
}

// list returns the resources in key order.
func (s *oracleSnapshot) list() []Resource {
	out := make([]Resource, 0, len(s.keys))
	for _, k := range s.keys {
		out = append(out, s.resources[k])
	}
	return out
}

// scopeBytes walks the snapshot for the scope's full-sync size.
func (s *oracleSnapshot) scopeBytes(sc Scope) int64 {
	var n int64
	for _, k := range s.keys {
		if r := s.resources[k]; sc.Matches(r) {
			n += int64(r.Bytes)
		}
	}
	return n
}

// oracleDiff is the merge walk over two sorted key lists.
func oracleDiff(from, to *oracleSnapshot) *Delta {
	d := &Delta{To: to.version}
	var fkeys []string
	if from != nil {
		d.From = from.version
		fkeys = from.keys
	}
	i, j := 0, 0
	for i < len(fkeys) || j < len(to.keys) {
		switch {
		case j >= len(to.keys) || (i < len(fkeys) && fkeys[i] < to.keys[j]):
			d.Removed = append(d.Removed, from.resources[fkeys[i]])
			i++
		case i >= len(fkeys) || to.keys[j] < fkeys[i]:
			d.Changed = append(d.Changed, to.resources[to.keys[j]])
			j++
		default:
			if from.resources[fkeys[i]].Hash != to.resources[to.keys[j]].Hash {
				d.Changed = append(d.Changed, to.resources[to.keys[j]])
			}
			i++
			j++
		}
	}
	return d
}

// buildResources materializes the whole resource set from the cluster's
// current state — the rebuild every flush used to run, kept as the oracle
// the distributor's change-driven snapshots are checked against.
func buildResources(c *cluster.Cluster, sz controlplane.Sizing, routeRev map[string]int) []Resource {
	var out []Resource
	for _, p := range c.Pods() {
		ep, id := podResources(p, sz)
		out = append(out, ep, id)
	}
	for _, svc := range c.Services() {
		out = append(out, ruleSetResource(svc, sz, routeRev[svc.Name]))
	}
	return out
}

// policyResources lists the compiler's buckets as resources.
func policyResources(pc *policy.Compiler, sz controlplane.Sizing) []Resource {
	var out []Resource
	for _, br := range pc.Resources() {
		out = append(out, Resource{Kind: KindPolicy, Name: br.Key, Service: br.Service,
			Bytes: br.Members * sz.PerRuleBytes, Hash: br.Hash})
	}
	return out
}

// snapshotOf publishes a version after prev holding exactly rs: everything
// prev held is removed, then rs stored (a later change to a key wins).
func snapshotOf(prev *Snapshot, version uint64, rs []Resource) *Snapshot {
	var changes []op[Resource]
	if prev != nil {
		for _, r := range prev.Resources() {
			changes = append(changes, op[Resource]{key: r.Key(), del: true})
		}
	}
	for _, r := range rs {
		changes = append(changes, op[Resource]{key: r.Key(), val: r})
	}
	return prev.next(version, 0, changes)
}

// fuzzReader hands out the fuzz input a byte at a time, zeros once spent.
type fuzzReader struct{ data []byte }

func (r *fuzzReader) next() int {
	if len(r.data) == 0 {
		return 0
	}
	b := r.data[0]
	r.data = r.data[1:]
	return int(b)
}

// fuzzResource draws one resource: 300 names per kind, so bulk runs split
// and join leaves, and a four-value hash space, so a key's content often
// returns to an earlier value.
func fuzzResource(r *fuzzReader, kind Kind, name int) Resource {
	res := Resource{
		Kind:    kind,
		Name:    fmt.Sprintf("s%03d", name),
		Node:    fmt.Sprintf("n%d", r.next()%4),
		Service: fmt.Sprintf("s%03d", r.next()%4),
		Bytes:   1 + r.next()%16,
		Hash:    uint64(r.next() % 4),
	}
	if kind == KindPolicy && r.next()%3 == 0 {
		res.Service = "" // a wildcard-destination bucket
	}
	return res
}

// fuzzScopes is every scope shape, over the nodes and services fuzzResource
// draws.
func fuzzScopes() []Scope {
	scopes := []Scope{{Kind: ScopeMesh}, {Kind: ScopeEndpoints}}
	for i := 0; i < 5; i++ {
		scopes = append(scopes,
			Scope{Kind: ScopeService, Name: fmt.Sprintf("s%03d", i)},
			Scope{Kind: ScopeNodeIdentity, Name: fmt.Sprintf("n%d", i)})
	}
	return scopes
}

// FuzzConfigSnapshots differentially tests the persistent snapshots against
// the rebuild-everything oracle over random change sets across all four
// kinds: upserts, removals (of absent keys too), same-value rewrites, reverts
// to a retained version's value (A→B→A inside the window) and bulk runs
// that split and join leaves. After every publish, for every retained
// version v: Get(v) lists, counts and looks up exactly the oracle's
// resources, its full-sync bytes match the oracle's walk for every scope,
// DiffToHead(v) — with every scope's delta payload priced from it — equals
// the oracle's merge walk, and applying it to v yields head's keys and
// hashes (the round trip).
func FuzzConfigSnapshots(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15})
	f.Add([]byte("\x05\x00\x00\x90\x05\x05\x01\x30\x40\x04\x04\x04\x02\x02\x03\x03"))
	f.Add([]byte("bulk runs, reverts and removals across every kind of resource"))
	sz := controlplane.DefaultSizing()
	scopes := fuzzScopes()
	f.Fuzz(func(t *testing.T, data []byte) {
		r := &fuzzReader{data: data}
		st := NewStore(3)
		oracles := map[uint64]*oracleSnapshot{}
		live := map[string]Resource{}
		for v := uint64(1); v <= 12 && len(r.data) > 0; v++ {
			var changes []op[Resource]
			set := func(res Resource) {
				changes = append(changes, op[Resource]{key: res.Key(), val: res})
				live[res.Key()] = res
			}
			del := func(key string) {
				changes = append(changes, op[Resource]{key: key, del: true})
				delete(live, key)
			}
			for n := 1 + r.next()%6; n > 0; n-- {
				kind := Kind(r.next() % numKinds)
				name := r.next() % 300
				key := Resource{Kind: kind, Name: fmt.Sprintf("s%03d", name)}.Key()
				switch r.next() % 6 {
				case 0, 1:
					set(fuzzResource(r, kind, name))
				case 2:
					del(key)
				case 3: // rewrite the current value as it is
					if res, ok := live[key]; ok {
						set(res)
					}
				case 4: // revert to a retained version's value
					old := oracles[v-1-uint64(r.next()%2)]
					if old == nil {
						continue
					}
					if res, ok := old.resources[key]; ok {
						set(res)
					} else {
						del(key)
					}
				default: // a bulk run of one kind
					run := 40 + r.next()%100
					remove := r.next()%2 == 0
					for i := name; i < name+run && i < 300; i++ {
						if remove {
							del(Resource{Kind: kind, Name: fmt.Sprintf("s%03d", i)}.Key())
						} else {
							set(fuzzResource(r, kind, i))
						}
					}
				}
			}
			st.Append(st.Head().next(v, 0, changes))
			list := make([]Resource, 0, len(live))
			for _, res := range live {
				list = append(list, res)
			}
			slices.SortFunc(list, func(a, b Resource) int { return strings.Compare(a.Key(), b.Key()) })
			oracles[v] = newOracleSnapshot(v, list)
			delete(oracles, v-3)
			checkRetained(t, st, oracles, scopes, sz)
		}
	})
}

// checkRetained compares every retained version of st with its oracle.
func checkRetained(t *testing.T, st *Store, oracles map[uint64]*oracleSnapshot, scopes []Scope, sz controlplane.Sizing) {
	t.Helper()
	head := st.Head()
	want := oracles[head.Version]
	versions := make([]uint64, 0, len(oracles))
	for v := range oracles {
		versions = append(versions, v)
	}
	slices.Sort(versions)
	for _, v := range versions {
		o, s := oracles[v], st.Get(v)
		if s == nil {
			t.Fatalf("head %d: version %d not retained", head.Version, v)
		}
		if got := s.Resources(); !slices.Equal(got, o.list()) {
			t.Fatalf("head %d: Get(%d).Resources() = %+v, oracle %+v", head.Version, v, got, o.list())
		}
		if s.Len() != len(o.keys) {
			t.Fatalf("head %d: Get(%d).Len() = %d, oracle %d", head.Version, v, s.Len(), len(o.keys))
		}
		for _, k := range o.keys {
			if got, ok := s.Resource(k); !ok || got != o.resources[k] {
				t.Fatalf("head %d: Get(%d).Resource(%q) = %+v, %v", head.Version, v, k, got, ok)
			}
		}
		for _, sc := range scopes {
			if got, exp := fullPayload(s, sc, sz), (Payload{To: v, Bytes: int64(sc.baseBytes(sz)) + o.scopeBytes(sc), Resync: true}); got != exp {
				t.Fatalf("head %d: full sync of %s at %d = %+v, oracle %+v", head.Version, sc.Key(), v, got, exp)
			}
		}
		got, exp := st.DiffToHead(v), oracleDiff(o, want)
		if !reflect.DeepEqual(got, exp) {
			t.Fatalf("DiffToHead(%d) to %d = %+v, oracle %+v", v, head.Version, got, exp)
		}
		for _, sc := range scopes {
			if g, e := deltaPayload(got, sc, sz), deltaPayload(exp, sc, sz); g != e {
				t.Fatalf("delta %d→%d for %s = %+v, oracle %+v", v, head.Version, sc.Key(), g, e)
			}
		}
		// Round trip: v with its delta to head applied holds head's keys and
		// content hashes.
		hashes := map[string]uint64{}
		for _, r := range s.Resources() {
			hashes[r.Key()] = r.Hash
		}
		for _, r := range got.Removed {
			delete(hashes, r.Key())
		}
		for _, r := range got.Changed {
			hashes[r.Key()] = r.Hash
		}
		for _, r := range head.Resources() {
			if h, ok := hashes[r.Key()]; !ok || h != r.Hash {
				t.Fatalf("Get(%d) + DiffToHead(%d) holds %q at %x/%v, head at %x", v, v, r.Key(), h, ok, r.Hash)
			}
		}
		if len(hashes) != head.Len() {
			t.Fatalf("Get(%d) + DiffToHead(%d) holds %d keys, head %d", v, v, len(hashes), head.Len())
		}
	}
}

// TestDistributorSnapshotsMatchRebuild drives a distributor through random
// cluster and policy churn — pods added and removed, services added, routes
// updated, intentions upserted and deleted, buckets emptied — and checks
// after every flush that the change-driven head holds exactly what a
// rebuild of the whole resource set from cluster and compiler would.
func TestDistributorSnapshotsMatchRebuild(t *testing.T) {
	s := sim.New(1)
	c := buildCluster(t, 4, 3, 4)
	pc := policy.NewCompiler()
	seedIntentions(t, pc, 60)
	sz := controlplane.DefaultSizing()
	d := New(Config{Sim: s, Cluster: c, Sizing: sz, Model: controlplane.CanalModel, Debounce: time.Second, Policy: pc})
	d.SubscribeModel()
	d.SyncAll()
	rng := rand.New(rand.NewSource(2))
	check := func(step int) {
		t.Helper()
		want := newOracleSnapshot(d.Version(), append(buildResources(c, sz, d.routeRev), policyResources(pc, sz)...))
		if got := d.Store().Head().Resources(); !slices.Equal(got, want.list()) {
			t.Fatalf("step %d: head holds %d resources, a rebuild %d:\n%+v\n%+v", step, len(got), len(want.keys), got, want.list())
		}
	}
	check(0)
	for step := 1; step <= 40; step++ {
		for n := 1 + rng.Intn(4); n > 0; n-- {
			switch rng.Intn(6) {
			case 0:
				if _, err := c.AddPod(fmt.Sprintf("svc%02d", rng.Intn(3)), c.Nodes()[rng.Intn(4)], clusterResources()); err != nil {
					t.Fatal(err)
				}
			case 1:
				if pods := c.Pods(); len(pods) > 0 {
					if err := c.RemovePod(pods[rng.Intn(len(pods))].Name); err != nil {
						t.Fatal(err)
					}
				}
			case 2:
				if err := c.UpdateRoutes(fmt.Sprintf("svc%02d", rng.Intn(3)), 1+rng.Intn(5)); err != nil {
					t.Fatal(err)
				}
			case 3:
				c.AddService(fmt.Sprintf("new%02d", rng.Intn(4)), 80, 2)
			case 4:
				pc.Apply([]string{fmt.Sprintf("seed/%04d", rng.Intn(60))}, nil)
				d.PolicyChanged()
			default:
				i := rng.Intn(80)
				if _, err := pc.Apply(nil, []policy.Intention{{
					ID: fmt.Sprintf("seed/%04d", i), Name: fmt.Sprintf("v%d", rng.Intn(3)),
					SrcTenant: fmt.Sprintf("t%02d", i%5), Src: policy.Exact(fmt.Sprintf("src%02d", rng.Intn(4))),
					Dst: policy.Exact(fmt.Sprintf("svc%02d", rng.Intn(3))), Action: policy.ActionAllow,
				}}); err != nil {
					t.Fatal(err)
				}
				d.PolicyChanged()
			}
		}
		s.Run()
		check(step)
	}
}

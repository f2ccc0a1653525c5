package configpush

import (
	"fmt"
	"testing"
	"time"

	"canalmesh/internal/controlplane"
	"canalmesh/internal/policy"
	"canalmesh/internal/sim"
)

// policyRig builds a synced Canal-model distributor whose snapshots include
// a compiled policy table.
func policyRig(t *testing.T, pc *policy.Compiler) (*sim.Sim, *Distributor) {
	t.Helper()
	s := sim.New(1)
	c := buildCluster(t, 4, 3, 4)
	d := New(Config{
		Sim: s, Cluster: c, Sizing: controlplane.DefaultSizing(),
		Model: controlplane.CanalModel, Debounce: 10 * time.Millisecond, Policy: pc,
	})
	d.SubscribeModel()
	d.SyncAll()
	return s, d
}

// seedIntentions installs n allow intentions spread across tenants and the
// cluster's services.
func seedIntentions(t *testing.T, pc *policy.Compiler, n int) {
	t.Helper()
	ints := make([]policy.Intention, 0, n)
	for i := 0; i < n; i++ {
		ints = append(ints, policy.Intention{
			ID:        fmt.Sprintf("seed/%04d", i),
			Name:      fmt.Sprintf("seed-%d", i),
			SrcTenant: fmt.Sprintf("t%02d", i%7),
			Src:       policy.Exact(fmt.Sprintf("src%02d", i%11)),
			Dst:       policy.Exact(fmt.Sprintf("svc%02d", i%3)),
			Action:    policy.ActionAllow,
		})
	}
	if _, err := pc.Apply(nil, ints); err != nil {
		t.Fatal(err)
	}
}

// TestPolicyDeltaShipsOnlyTouchedBuckets pins the end-to-end incremental
// path: one intention change recompiles at most two dispatch buckets, and
// the resulting push carries only those buckets — not the policy set.
func TestPolicyDeltaShipsOnlyTouchedBuckets(t *testing.T) {
	pc := policy.NewCompiler()
	seedIntentions(t, pc, 400)
	s, d := policyRig(t, pc)

	gw := d.Session("gateway")
	if gw == nil {
		t.Fatal("canal model must subscribe a mesh gateway")
	}
	baselineBytes := gw.BytesReceived

	// Full policy footprint at the current table, for comparison.
	var fullPolicyBytes int64
	for _, br := range pc.Resources() {
		fullPolicyBytes += int64(br.Members * d.cfg.Sizing.PerRuleBytes)
	}

	st, err := pc.Apply(nil, []policy.Intention{{
		ID: "seed/0007", Name: "seed-7-updated", SrcTenant: "t00",
		Src: policy.Exact("src07"), Dst: policy.Exact("svc01"), Action: policy.ActionDeny,
	}})
	if err != nil {
		t.Fatal(err)
	}
	if st.TouchedBuckets > 2 {
		t.Fatalf("single upsert touched %d buckets, want <= 2", st.TouchedBuckets)
	}
	d.PolicyChanged()
	s.Run()

	if gw.Deltas != 1 || gw.Resyncs != 0 {
		t.Fatalf("gateway got %d deltas / %d resyncs, want exactly 1 delta", gw.Deltas, gw.Resyncs)
	}
	got := gw.BytesReceived - baselineBytes
	if got <= 0 || got >= fullPolicyBytes/4 {
		t.Fatalf("policy delta pushed %d bytes; want a small fraction of the %d-byte full policy set",
			got, fullPolicyBytes)
	}
}

// TestPolicyChangesCoalesce checks PolicyChanged obeys the debounce window:
// a burst of policy mutations builds one snapshot, and an untouched table
// contributes no delta at all.
func TestPolicyChangesCoalesce(t *testing.T) {
	pc := policy.NewCompiler()
	seedIntentions(t, pc, 50)
	s, d := policyRig(t, pc)
	builds := d.Builds()

	for i := 0; i < 5; i++ {
		if _, err := pc.Apply(nil, []policy.Intention{{
			ID: fmt.Sprintf("burst/%d", i), Name: "burst", SrcTenant: "t01",
			Src: policy.Exact("web"), Dst: policy.Exact("svc00"), Action: policy.ActionAllow,
		}}); err != nil {
			t.Fatal(err)
		}
		d.PolicyChanged()
	}
	s.Run()
	if got := d.Builds() - builds; got != 1 {
		t.Fatalf("5 coalesced policy changes produced %d builds, want 1", got)
	}

	// A PolicyChanged with nothing actually changed publishes a version whose
	// delta is empty: sessions advance silently, no bytes move.
	gw := d.Session("gateway")
	sent := gw.BytesReceived
	d.PolicyChanged()
	s.Run()
	if gw.BytesReceived != sent {
		t.Fatalf("no-op policy change pushed %d bytes", gw.BytesReceived-sent)
	}
}

// TestScopeServicePolicyFiltering pins the subscription footprint of policy
// buckets: a service scope receives its own destination-exact buckets plus
// every wildcard-destination bucket, a mesh scope receives all of them, and
// endpoint/identity scopes none.
func TestScopeServicePolicyFiltering(t *testing.T) {
	exact := Resource{Kind: KindPolicy, Name: "t1|web|api", Service: "api"}
	other := Resource{Kind: KindPolicy, Name: "t1|web|db", Service: "db"}
	wildcard := Resource{Kind: KindPolicy, Name: "*|*|*", Service: ""}

	svc := Scope{Kind: ScopeService, Name: "api"}
	if !svc.Matches(exact) || svc.Matches(other) || !svc.Matches(wildcard) {
		t.Fatalf("ScopeService filtering wrong: exact=%v other=%v wildcard=%v",
			svc.Matches(exact), svc.Matches(other), svc.Matches(wildcard))
	}
	mesh := Scope{Kind: ScopeMesh}
	if !mesh.Matches(exact) || !mesh.Matches(other) || !mesh.Matches(wildcard) {
		t.Fatal("ScopeMesh must receive every policy bucket")
	}
	for _, sc := range []Scope{{Kind: ScopeEndpoints}, {Kind: ScopeNodeIdentity, Name: "n000"}} {
		if sc.Matches(exact) || sc.Matches(wildcard) {
			t.Fatalf("scope %v must not receive policy buckets", sc)
		}
	}
}

// TestPolicyFlushAllocsFlat is the gate against a flush sliding back to a
// rebuild of the whole configuration: a flush after a one-bucket Apply —
// publish, diff and fan-out, with the deliveries it schedules — allocates
// the same at 10^3 and at 10^5 installed intentions (one bucket each), up to
// the few nodes a taller snapshot tree copies on the changed path.
func TestPolicyFlushAllocsFlat(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("allocation counts need a full, uninstrumented run")
	}
	allocs := func(n int) float64 {
		pc := policy.NewCompiler()
		ints := make([]policy.Intention, n)
		for i := range ints {
			ints[i] = policy.Intention{
				ID: fmt.Sprintf("i%06d", i), Name: "r", SrcTenant: fmt.Sprintf("t%02d", i%16),
				Src: policy.Exact(fmt.Sprintf("src%06d", i)), Dst: policy.Exact(fmt.Sprintf("svc%02d", i%3)),
				Action: policy.ActionAllow,
			}
		}
		if _, err := pc.Apply(nil, ints); err != nil {
			t.Fatal(err)
		}
		s := sim.New(1)
		d := New(Config{
			Sim: s, Cluster: buildCluster(t, 4, 3, 4), Sizing: controlplane.DefaultSizing(),
			Model: controlplane.CanalModel, Policy: pc,
		})
		d.SubscribeModel()
		d.SyncAll()
		flip, names := ints[n/2], []string{"a", "b"}
		runs := 0
		return testing.AllocsPerRun(50, func() {
			runs++
			flip.Name = names[runs%2] // moves the bucket's hash
			if _, err := pc.Apply(nil, []policy.Intention{flip}); err != nil {
				t.Fatal(err)
			}
			d.PolicyChanged() // no debounce: flushes here
			s.Run()
		})
	}
	small, large := allocs(1_000), allocs(100_000)
	t.Logf("allocs per one-bucket change and flush: %.0f at 10^3 intentions, %.0f at 10^5", small, large)
	if large > small+8 {
		t.Fatalf("a one-bucket flush allocates %.0f at 10^5 intentions against %.0f at 10^3: its cost follows the table size", large, small)
	}
}

package beamer

import (
	"testing"

	"canalmesh/internal/cloud"
)

func flow(srcPort uint16) cloud.SessionKey {
	return cloud.SessionKey{SrcIP: "10.9.0.1", SrcPort: srcPort, DstIP: "10.1.0.1", DstPort: 443, Proto: 6}
}

// maxChainLen is the longest chain in the bucket table: how many drains
// are still in flight.
func maxChainLen(b *Beamer) int {
	n := 0
	for _, c := range b.buckets {
		n = max(n, len(c))
	}
	return n
}

func newBeamer(t *testing.T, replicas ...string) *Beamer {
	t.Helper()
	b, err := New("svc-1", replicas, 64, 4)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestNewRequiresReplicas(t *testing.T) {
	if _, err := New("svc", nil, 0, 0); err != ErrNoReplicas {
		t.Errorf("err = %v, want ErrNoReplicas", err)
	}
}

func TestNewRejectsDuplicates(t *testing.T) {
	if _, err := New("svc", []string{"a", "a"}, 0, 0); err == nil {
		t.Error("duplicate replica IDs must be rejected")
	}
}

func TestSYNInsertsAndFlowSticks(t *testing.T) {
	b := newBeamer(t, "ip1", "ip2", "ip3")
	k := flow(1000)
	first, err := b.Process(k, true)
	if err != nil {
		t.Fatal(err)
	}
	if !first.NewFlow {
		t.Error("SYN should create a flow")
	}
	for i := 0; i < 20; i++ {
		res, err := b.Process(k, false)
		if err != nil {
			t.Fatal(err)
		}
		if res.ServedBy != first.ServedBy {
			t.Fatalf("flow moved from %s to %s", first.ServedBy, res.ServedBy)
		}
	}
}

func TestNonSYNWithoutRecordErrors(t *testing.T) {
	b := newBeamer(t, "ip1", "ip2")
	if _, err := b.Process(flow(42), false); err == nil {
		t.Error("mid-flow packet without a record should reset")
	}
}

// TestDrainSessionConsistency reproduces the Fig. 26 case: when a replica is
// about to go offline, existing flows continue to reach it while new flows
// land on the replacement at the chain head.
func TestDrainSessionConsistency(t *testing.T) {
	b := newBeamer(t, "ip1", "ip2", "ip3")
	// Establish flows across replicas.
	var existing []cloud.SessionKey
	owner := map[string][]cloud.SessionKey{}
	for p := uint16(1); p <= 200; p++ {
		k := flow(p)
		res, err := b.Process(k, true)
		if err != nil {
			t.Fatal(err)
		}
		existing = append(existing, k)
		owner[res.ServedBy] = append(owner[res.ServedBy], k)
	}
	if len(owner["ip2"]) == 0 {
		t.Fatal("test needs flows on ip2")
	}

	if err := b.Drain("ip2"); err != nil {
		t.Fatal(err)
	}

	// Every pre-drain flow still reaches its original owner.
	for _, k := range existing {
		res, err := b.Process(k, false)
		if err != nil {
			t.Fatalf("existing flow %v reset after drain: %v", k, err)
		}
		found := false
		for _, kk := range owner[res.ServedBy] {
			if kk == k {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("flow %v served by wrong replica %s after drain", k, res.ServedBy)
		}
	}

	// New flows never land on the draining replica.
	for p := uint16(1000); p < 1200; p++ {
		res, err := b.Process(flow(p), true)
		if err != nil {
			t.Fatal(err)
		}
		if res.ServedBy == "ip2" {
			t.Fatal("new flow landed on draining replica")
		}
	}
}

func TestRemoveAfterFlowsAge(t *testing.T) {
	b := newBeamer(t, "ip1", "ip2")
	var onIP2 []cloud.SessionKey
	for p := uint16(1); p <= 100; p++ {
		k := flow(p)
		res, err := b.Process(k, true)
		if err != nil {
			t.Fatal(err)
		}
		if res.ServedBy == "ip2" {
			onIP2 = append(onIP2, k)
		}
	}
	if err := b.Drain("ip2"); err != nil {
		t.Fatal(err)
	}
	if err := b.Remove("ip2"); err == nil {
		t.Fatal("Remove must refuse while flows remain")
	}
	if err := b.Drain("ghost"); err == nil {
		t.Error("draining unknown replica should fail")
	}
	if err := b.Remove("ghost"); err == nil {
		t.Error("removing unknown replica should fail")
	}
	for _, k := range onIP2 {
		b.EndFlow(k)
	}
	if err := b.Remove("ip2"); err != nil {
		t.Fatalf("Remove after aging: %v", err)
	}
	// Everything keeps working on the survivor.
	if _, err := b.Process(flow(9999), true); err != nil {
		t.Fatal(err)
	}
	for _, chain := range b.buckets {
		for _, id := range chain {
			if id == "ip2" {
				t.Fatal("removed replica still in a chain")
			}
		}
	}
}

func TestConsecutiveScaleEventsStayWithinChainLimit(t *testing.T) {
	// §4.4 modification (i): longer chains tolerate consecutive scale
	// events; three drains in a row prepend three replacements, and the
	// chains stay within the limit.
	b := newBeamer(t, "ip1", "ip2", "ip3", "ip4", "ip5")
	for p := uint16(1); p <= 100; p++ {
		if _, err := b.Process(flow(p), true); err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range []string{"ip1", "ip2", "ip3"} {
		if err := b.Drain(id); err != nil {
			t.Fatal(err)
		}
	}
	if maxChainLen(b) > 4 {
		t.Errorf("chain length %d exceeds limit", maxChainLen(b))
	}
	// New flows land on the two replicas still taking them.
	for p := uint16(7000); p < 7100; p++ {
		res, err := b.Process(flow(p), true)
		if err != nil {
			t.Fatal(err)
		}
		if res.ServedBy != "ip4" && res.ServedBy != "ip5" {
			t.Fatalf("new flow served by draining %s", res.ServedBy)
		}
	}
}

func TestAllReplicasDown(t *testing.T) {
	b := newBeamer(t, "ip1")
	if err := b.Remove("ip1"); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Process(flow(1), true); err != ErrNoReplicas {
		t.Errorf("err = %v, want ErrNoReplicas", err)
	}
}

func TestBucketStability(t *testing.T) {
	// A flow's bucket never changes, even across scale events — the fixed
	// bucket count is the anchor of consistency.
	b := newBeamer(t, "ip1", "ip2", "ip3")
	k := flow(123)
	before := b.bucketOf(k)
	if err := b.Drain("ip1"); err != nil {
		t.Fatal(err)
	}
	if err := b.Remove("ip1"); err != nil {
		t.Fatal(err)
	}
	if b.bucketOf(k) != before {
		t.Error("bucket changed across scale events")
	}
}

func TestRedirectsBounded(t *testing.T) {
	b := newBeamer(t, "ip1", "ip2", "ip3", "ip4")
	for p := uint16(1); p <= 100; p++ {
		if _, err := b.Process(flow(p), true); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Drain("ip1"); err != nil {
		t.Fatal(err)
	}
	for p := uint16(1); p <= 100; p++ {
		res, err := b.Process(flow(p), false)
		if err != nil {
			t.Fatal(err)
		}
		if res.Redirects > maxChainLen(b) {
			t.Errorf("redirects %d exceed chain length %d", res.Redirects, maxChainLen(b))
		}
	}
}

package beamer

import (
	"testing"

	"canalmesh/internal/cloud"
)

func flow(srcPort uint16) cloud.SessionKey {
	return cloud.SessionKey{SrcIP: "10.9.0.1", SrcPort: srcPort, DstIP: "10.1.0.1", DstPort: 443, Proto: 6}
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

func TestScaleOutTakesNewFlows(t *testing.T) {
	b := newBeamer(t, "ip1", "ip2")
	if err := b.ScaleOut("ip3"); err != nil {
		t.Fatal(err)
	}
	got := 0
	for p := uint16(1); p <= 600; p++ {
		res, err := b.Process(flow(p), true)
		if err != nil {
			t.Fatal(err)
		}
		if res.ServedBy == "ip3" {
			got++
		}
	}
	// ip3 took over ~1/3 of buckets; expect it to serve a sizable share.
	if got < 100 {
		t.Errorf("new replica served %d of 600 new flows; scale-out ineffective", got)
	}
}

func TestScaleOutDuplicateID(t *testing.T) {
	b := newBeamer(t, "ip1")
	if err := b.ScaleOut("ip1"); err == nil {
		t.Error("duplicate scale-out must fail")
	}
}

func TestFailLosesFlowsButServiceSurvives(t *testing.T) {
	b := newBeamer(t, "ip1", "ip2", "ip3")
	victims := []cloud.SessionKey{}
	for p := uint16(1); p <= 150; p++ {
		k := flow(p)
		res, err := b.Process(k, true)
		if err != nil {
			t.Fatal(err)
		}
		if res.ServedBy == "ip2" {
			victims = append(victims, k)
		}
	}
	if err := b.Fail("ip2"); err != nil {
		t.Fatal(err)
	}
	// Victim flows reset (records lost with the crash)...
	resets := 0
	for _, k := range victims {
		if _, err := b.Process(k, false); err != nil {
			resets++
		}
	}
	if resets != len(victims) {
		t.Errorf("resets = %d of %d victim flows", resets, len(victims))
	}
	// ...but they re-establish on surviving replicas.
	for _, k := range victims {
		res, err := b.Process(k, true)
		if err != nil {
			t.Fatal(err)
		}
		if res.ServedBy == "ip2" {
			t.Fatal("flow re-established on dead replica")
		}
	}
}

func TestConsecutiveScaleEventsStayWithinChainLimit(t *testing.T) {
	// §4.4 modification (i): longer chains tolerate consecutive crashes.
	b := newBeamer(t, "ip1", "ip2", "ip3", "ip4", "ip5")
	for p := uint16(1); p <= 100; p++ {
		if _, err := b.Process(flow(p), true); err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range []string{"ip1", "ip2", "ip3"} {
		if err := b.Fail(id); err != nil {
			t.Fatal(err)
		}
	}
	if b.MaxChainLen() > 4 {
		t.Errorf("chain length %d exceeds limit", b.MaxChainLen())
	}
	// New flows still work on the two survivors.
	res, err := b.Process(flow(7777), true)
	if err != nil {
		t.Fatal(err)
	}
	if res.ServedBy != "ip4" && res.ServedBy != "ip5" {
		t.Errorf("served by %s", res.ServedBy)
	}
}

func TestAllReplicasDown(t *testing.T) {
	b := newBeamer(t, "ip1")
	if err := b.Fail("ip1"); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Process(flow(1), true); err != ErrNoReplicas {
		t.Errorf("err = %v, want ErrNoReplicas", err)
	}
}

func TestBucketStability(t *testing.T) {
	// A flow's bucket never changes, even across scale events — the fixed
	// bucket count is the anchor of consistency.
	b := newBeamer(t, "ip1", "ip2")
	k := flow(123)
	before := b.bucketOf(k)
	if err := b.ScaleOut("ip3"); err != nil {
		t.Fatal(err)
	}
	if err := b.Drain("ip1"); err != nil {
		t.Fatal(err)
	}
	if b.bucketOf(k) != before {
		t.Error("bucket changed across scale events")
	}
}

func TestChainOfAndAccessors(t *testing.T) {
	b := newBeamer(t, "ip1", "ip2")
	k := flow(5)
	chain := b.ChainOf(k)
	if len(chain) != 1 {
		t.Errorf("initial chain = %v", chain)
	}
	chain[0] = "mutated"
	if b.ChainOf(k)[0] == "mutated" {
		t.Error("ChainOf must copy")
	}
	if b.Service() != "svc-1" {
		t.Error("Service()")
	}
	if r := b.Replica("ip1"); r == nil || !r.Alive() {
		t.Error("Replica accessor")
	}
	if err := b.Drain("ghost"); err == nil {
		t.Error("draining unknown replica should fail")
	}
	if err := b.Fail("ghost"); err == nil {
		t.Error("failing unknown replica should fail")
	}
	if err := b.Remove("ghost"); err == nil {
		t.Error("removing unknown replica should fail")
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
		if res.Redirects > b.MaxChainLen() {
			t.Errorf("redirects %d exceed chain length %d", res.Redirects, b.MaxChainLen())
		}
	}
}

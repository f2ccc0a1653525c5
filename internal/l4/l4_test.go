package l4

import (
	"fmt"
	"hash/fnv"
	"testing"
	"testing/quick"

	"canalmesh/internal/cloud"
)

func key(srcPort uint16) cloud.SessionKey {
	return cloud.SessionKey{SrcIP: "10.0.0.1", SrcPort: srcPort, DstIP: "10.0.1.1", DstPort: 80, Proto: 6}
}

// hash5TupleFmt is the fmt+fnv form Hash5Tuple replaced, kept as the oracle:
// the inline hash must agree with it on every key, or every beamer, tunnel
// and balancer pick moves.
func hash5TupleFmt(k cloud.SessionKey) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s|%d|%s|%d|%d", k.SrcIP, k.SrcPort, k.DstIP, k.DstPort, k.Proto)
	return h.Sum64()
}

func TestHash5TupleGolden(t *testing.T) {
	for _, tc := range []struct {
		k    cloud.SessionKey
		want uint64
	}{
		{cloud.SessionKey{SrcIP: "10.0.0.1", SrcPort: 1234, DstIP: "10.0.1.1", DstPort: 80, Proto: 6}, 0x9c6009cde776d8c0},
		{cloud.SessionKey{}, 0x9ff517d7eb35f6f7},
		{cloud.SessionKey{DstPort: 65535, Proto: 255}, 0x815831f01695a687},
		{cloud.SessionKey{SrcIP: "2001:db8::1", SrcPort: 443, DstIP: "fe80::1%eth0", DstPort: 8443, Proto: 17}, 0x6da46936f4d158bf},
		{cloud.SessionKey{SrcIP: "10.9.3.17", SrcPort: 65535, DstIP: "10.1.0.1", DstPort: 0, Proto: 0}, 0xfbaf8fa816a4badf},
		{cloud.SessionKey{SrcIP: "192.168.1.250", SrcPort: 1024, DstIP: "192.168.1.1", DstPort: 53, Proto: 17}, 0xb568b19f8913dea4},
		{cloud.SessionKey{SrcIP: "a|b", SrcPort: 9, DstIP: "c", DstPort: 10, Proto: 1}, 0xc0096cb3e1f10dfe},
	} {
		if got := Hash5Tuple(tc.k); got != tc.want {
			t.Errorf("Hash5Tuple(%v) = %#x, want %#x", tc.k, got, tc.want)
		}
		if ref := hash5TupleFmt(tc.k); ref != tc.want {
			t.Errorf("reference hash of %v = %#x, want %#x", tc.k, ref, tc.want)
		}
	}
}

func FuzzHash5Tuple(f *testing.F) {
	f.Add("10.0.0.1", uint16(1234), "10.0.1.1", uint16(80), uint8(6))
	f.Add("", uint16(0), "", uint16(65535), uint8(255))
	f.Add("2001:db8::1", uint16(443), "fe80::1%eth0", uint16(8443), uint8(17))
	f.Fuzz(func(t *testing.T, src string, sport uint16, dst string, dport uint16, proto uint8) {
		k := cloud.SessionKey{SrcIP: src, SrcPort: sport, DstIP: dst, DstPort: dport, Proto: proto}
		if got, want := Hash5Tuple(k), hash5TupleFmt(k); got != want {
			t.Fatalf("Hash5Tuple(%v) = %#x, fmt+fnv reference %#x", k, got, want)
		}
	})
}

func TestHashBalancerDeterministic(t *testing.T) {
	var b HashBalancer
	k := key(1234)
	i1, err := b.Pick(k, 8)
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n < 100; n++ {
		i2, _ := b.Pick(k, 8)
		if i1 != i2 {
			t.Fatal("hash balancer must be deterministic per flow")
		}
	}
}

func TestHashBalancerSpreads(t *testing.T) {
	var b HashBalancer
	counts := make([]int, 4)
	for p := uint16(1); p <= 4000; p++ {
		i, err := b.Pick(key(p), 4)
		if err != nil {
			t.Fatal(err)
		}
		counts[i]++
	}
	for i, c := range counts {
		if c < 700 || c > 1300 {
			t.Errorf("backend %d got %d of 4000 flows; poor spread %v", i, c, counts)
		}
	}
}

func TestHashBalancerInRangeProperty(t *testing.T) {
	f := func(srcPort, dstPort uint16, proto uint8, n uint8) bool {
		if n == 0 {
			return true
		}
		k := cloud.SessionKey{SrcIP: "1.2.3.4", SrcPort: srcPort, DstIP: "5.6.7.8", DstPort: dstPort, Proto: proto}
		i, err := HashBalancer{}.Pick(k, int(n))
		return err == nil && i >= 0 && i < int(n)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBalancersNoBackends(t *testing.T) {
	if _, err := (HashBalancer{}).Pick(key(1), 0); err == nil {
		t.Error("expected error with no backends")
	}
	if _, err := (&RoundRobinBalancer{}).Pick(key(1), 0); err == nil {
		t.Error("expected error with no backends")
	}
}

func TestRoundRobinCycles(t *testing.T) {
	b := &RoundRobinBalancer{}
	var got []int
	for i := 0; i < 6; i++ {
		v, err := b.Pick(key(1), 3)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, v)
	}
	want := []int{0, 1, 2, 0, 1, 2}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("round robin order %v, want %v", got, want)
		}
	}
}

func TestAdmitDefaultDeny(t *testing.T) {
	ok, rule := Admit(nil, "spiffe://t1/web", 80)
	if ok {
		t.Error("zero-trust default must deny")
	}
	if rule != "default-deny" {
		t.Errorf("rule = %q", rule)
	}
}

func TestAdmitFirstMatchWins(t *testing.T) {
	rules := []AdmissionRule{
		{Name: "deny-db-from-web", Allow: false, SrcIDs: []string{"web"}, DstPorts: []uint16{5432}},
		{Name: "allow-web", Allow: true, SrcIDs: []string{"web"}},
	}
	if ok, name := Admit(rules, "web", 5432); ok || name != "deny-db-from-web" {
		t.Errorf("web->5432 should be denied by specific rule, got %v %q", ok, name)
	}
	if ok, _ := Admit(rules, "web", 80); !ok {
		t.Error("web->80 should be allowed")
	}
	if ok, _ := Admit(rules, "intruder", 80); ok {
		t.Error("unknown identity should be denied")
	}
}

func TestAdmitWildcardFields(t *testing.T) {
	rules := []AdmissionRule{{Name: "allow-all-to-443", Allow: true, DstPorts: []uint16{443}}}
	if ok, _ := Admit(rules, "anyone", 443); !ok {
		t.Error("empty SrcIDs should match any identity")
	}
	if ok, _ := Admit(rules, "anyone", 80); ok {
		t.Error("non-matching port should fall to default deny")
	}
}

func TestConntrack(t *testing.T) {
	ct := NewConntrack()
	k := key(99)
	if _, ok := ct.Lookup(k); ok {
		t.Error("empty table should miss")
	}
	ct.Bind(k, "backend-1")
	if b, ok := ct.Lookup(k); !ok || b != "backend-1" {
		t.Errorf("Lookup = %q, %v", b, ok)
	}
	if ct.Len() != 1 {
		t.Errorf("Len = %d", ct.Len())
	}
	ct.Unbind(k)
	if ct.Len() != 0 {
		t.Error("Unbind should remove")
	}
}

func TestConntrackFlowsTo(t *testing.T) {
	ct := NewConntrack()
	ct.Bind(key(1), "a")
	ct.Bind(key(2), "a")
	ct.Bind(key(3), "b")
	flows := ct.FlowsTo("a")
	if len(flows) != 2 {
		t.Fatalf("FlowsTo(a) = %v", flows)
	}
	if flows[0].String() >= flows[1].String() {
		t.Error("FlowsTo must be sorted")
	}
}

func TestLoadBalancerSessionAffinity(t *testing.T) {
	lb := NewLoadBalancer(&RoundRobinBalancer{})
	backends := []string{"a", "b", "c"}
	k := key(7)
	first, err := lb.Route(k, backends)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		got, err := lb.Route(k, backends)
		if err != nil {
			t.Fatal(err)
		}
		if got != first {
			t.Fatal("existing flow must stick to its backend")
		}
	}
	// A different flow advances the round robin.
	other, _ := lb.Route(key(8), backends)
	if other == first {
		t.Error("new flow should land on next backend")
	}
}

func TestLoadBalancerRebindsWhenOwnerDies(t *testing.T) {
	lb := NewLoadBalancer(HashBalancer{})
	k := key(7)
	owner, err := lb.Route(k, []string{"a", "b"})
	if err != nil {
		t.Fatal(err)
	}
	var survivor string
	if owner == "a" {
		survivor = "b"
	} else {
		survivor = "a"
	}
	got, err := lb.Route(k, []string{survivor})
	if err != nil {
		t.Fatal(err)
	}
	if got != survivor {
		t.Errorf("flow should move to survivor %q, got %q", survivor, got)
	}
	if b, _ := lb.Conntrack().Lookup(k); b != survivor {
		t.Error("conntrack should be rebound")
	}
}

func TestLoadBalancerNoBackends(t *testing.T) {
	lb := NewLoadBalancer(HashBalancer{})
	if _, err := lb.Route(key(1), nil); err == nil {
		t.Error("expected error with no backends")
	}
}

package cloud

import (
	"testing"

	"canalmesh/internal/sim"
)

func region(t *testing.T) *Region {
	t.Helper()
	return NewRegion(sim.New(1), "r1", "az1", "az2", "az3")
}

func TestRegionAZLookup(t *testing.T) {
	r := region(t)
	if az := r.AZ("az2"); az == nil || az.Name != "az2" {
		t.Fatalf("AZ(az2) = %v", az)
	}
	if az := r.AZ("nope"); az != nil {
		t.Fatalf("AZ(nope) = %v, want nil", az)
	}
}

func TestNewVMPlacement(t *testing.T) {
	r := region(t)
	vm, err := r.AZ("az1").NewVM(VMSpec{Cores: 4})
	if err != nil {
		t.Fatal(err)
	}
	if vm.Place.Region != "r1" || vm.Place.AZ != "az1" || vm.Place.Node == "" {
		t.Errorf("bad placement %+v", vm.Place)
	}
	if vm.Proc.Cores() != 4 {
		t.Errorf("cores = %d, want 4", vm.Proc.Cores())
	}
}

func TestVMIDsUniqueAcrossAZs(t *testing.T) {
	r := region(t)
	seen := map[string]bool{}
	for _, azName := range []string{"az1", "az2", "az1"} {
		vm, err := r.AZ(azName).NewVM(VMSpec{Cores: 1})
		if err != nil {
			t.Fatal(err)
		}
		if seen[vm.ID] {
			t.Fatalf("duplicate VM ID %s", vm.ID)
		}
		seen[vm.ID] = true
	}
}

func TestQATRequiresCapableAZ(t *testing.T) {
	r := region(t)
	r.AZ("az3").HasQAT = false
	if _, err := r.AZ("az3").NewVM(VMSpec{Cores: 1, HasQAT: true}); err == nil {
		t.Error("expected error requesting QAT VM in non-QAT AZ")
	}
	if _, err := r.AZ("az3").NewVM(VMSpec{Cores: 1}); err != nil {
		t.Errorf("plain VM in non-QAT AZ should work: %v", err)
	}
}

func TestFailAZ(t *testing.T) {
	r := region(t)
	az := r.AZ("az1")
	for i := 0; i < 3; i++ {
		if _, err := az.NewVM(VMSpec{Cores: 1}); err != nil {
			t.Fatal(err)
		}
	}
	az.FailAZ()
	if n := len(AliveVMs(az.VMs())); n != 0 {
		t.Errorf("alive after AZ failure = %d, want 0", n)
	}
	az.RecoverAZ()
	if n := len(AliveVMs(az.VMs())); n != 3 {
		t.Errorf("alive after recovery = %d, want 3", n)
	}
}

func TestTenantVPCOverlap(t *testing.T) {
	t1, err := NewTenant("t1", "alpha", "10.0.0.0/16", 100)
	if err != nil {
		t.Fatal(err)
	}
	t2, err := NewTenant("t2", "beta", "10.0.0.0/16", 200)
	if err != nil {
		t.Fatal(err)
	}
	t3, err := NewTenant("t3", "gamma", "172.16.0.0/16", 300)
	if err != nil {
		t.Fatal(err)
	}
	if !t1.VPC.Overlaps(t2.VPC) {
		t.Error("identical CIDRs should overlap")
	}
	if t1.VPC.Overlaps(t3.VPC) {
		t.Error("distinct CIDRs should not overlap")
	}
}

func TestVPCAllocIP(t *testing.T) {
	tn, err := NewTenant("t1", "alpha", "10.1.0.0/30", 1)
	if err != nil {
		t.Fatal(err)
	}
	a, err := tn.VPC.AllocIP()
	if err != nil {
		t.Fatal(err)
	}
	b, err := tn.VPC.AllocIP()
	if err != nil {
		t.Fatal(err)
	}
	if a == b {
		t.Error("allocated addresses must be distinct")
	}
	if !tn.VPC.CIDR.Contains(a) || !tn.VPC.CIDR.Contains(b) {
		t.Error("allocated addresses must be inside the CIDR")
	}
	// /30 has 4 addresses; base skipped, so one more alloc then exhaustion.
	if _, err := tn.VPC.AllocIP(); err != nil {
		t.Fatalf("third alloc should succeed: %v", err)
	}
	if _, err := tn.VPC.AllocIP(); err == nil {
		t.Error("expected VPC exhaustion")
	}
}

func TestOverlappingVPCsAllocSameIPs(t *testing.T) {
	// The core multi-tenancy problem (§4.2): two tenants can hold the
	// identical inner IP.
	t1, _ := NewTenant("t1", "a", "192.168.0.0/24", 1)
	t2, _ := NewTenant("t2", "b", "192.168.0.0/24", 2)
	a, _ := t1.VPC.AllocIP()
	b, _ := t2.VPC.AllocIP()
	if a != b {
		t.Errorf("expected identical first allocations, got %v and %v", a, b)
	}
}

func TestNewTenantBadCIDR(t *testing.T) {
	if _, err := NewTenant("t1", "a", "not-a-cidr", 1); err == nil {
		t.Error("expected error for invalid CIDR")
	}
}

func TestSessionKeyString(t *testing.T) {
	k := SessionKey{SrcIP: "10.0.0.1", SrcPort: 1234, DstIP: "10.0.0.2", DstPort: 80, Proto: 6}
	if got := k.String(); got != "10.0.0.1:1234->10.0.0.2:80/6" {
		t.Errorf("String = %q", got)
	}
}

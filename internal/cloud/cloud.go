// Package cloud models the multi-tenant public-cloud substrate Canal Mesh is
// deployed on: regions divided into availability zones, tenants owning VPCs
// whose private address spaces may overlap, and elastically created VMs that
// back gateway replicas, key servers, and user nodes.
package cloud

import (
	"fmt"
	"net/netip"
	"sort"

	"canalmesh/internal/netmodel"
	"canalmesh/internal/sim"
)

// Region is a cloud region containing one or more availability zones.
type Region struct {
	Name string
	AZs  []*AZ

	sim   *sim.Sim
	vmSeq int
}

// AZ is an availability zone. HasQAT reports whether VM models with
// asymmetric-crypto acceleration (QAT/AVX-512) are available in this zone;
// the paper notes <5% of AZs lack them (§4.1.3).
type AZ struct {
	Name   string
	Region *Region
	HasQAT bool

	vms []*VM
}

// NewRegion creates a region with the named AZs, all QAT-capable.
func NewRegion(s *sim.Sim, name string, azNames ...string) *Region {
	r := &Region{Name: name, sim: s}
	for _, az := range azNames {
		r.AZs = append(r.AZs, &AZ{Name: az, Region: r, HasQAT: true})
	}
	return r
}

// AZ returns the named availability zone, or nil.
func (r *Region) AZ(name string) *AZ {
	for _, az := range r.AZs {
		if az.Name == name {
			return az
		}
	}
	return nil
}

// VM is a virtual machine placed in an AZ. Its Proc is the simulated CPU all
// work scheduled onto the VM runs on.
type VM struct {
	ID     string
	Place  netmodel.Place
	Proc   *sim.Processor
	HasQAT bool
	az     *AZ
	failed bool
}

// VMSpec describes a VM to create.
type VMSpec struct {
	Cores  int
	HasQAT bool // requires the AZ to support QAT
}

// NewVM creates a VM in the zone. It returns an error if QAT is requested in
// a zone without QAT-capable hardware.
func (az *AZ) NewVM(spec VMSpec) (*VM, error) {
	if spec.HasQAT && !az.HasQAT {
		return nil, fmt.Errorf("cloud: AZ %s has no QAT/AVX-512 capable VM models", az.Name)
	}
	if spec.Cores <= 0 {
		spec.Cores = 1
	}
	az.Region.vmSeq++
	id := fmt.Sprintf("%s-%s-vm%d", az.Region.Name, az.Name, az.Region.vmSeq)
	vm := &VM{
		ID:     id,
		Place:  netmodel.Place{Region: az.Region.Name, AZ: az.Name, Node: id},
		Proc:   sim.NewProcessor(az.Region.sim, id, spec.Cores),
		HasQAT: spec.HasQAT,
		az:     az,
	}
	az.vms = append(az.vms, vm)
	return vm, nil
}

// Fail marks the VM as failed (power loss, crash).
func (vm *VM) Fail() { vm.failed = true }

// Recover clears the failed state.
func (vm *VM) Recover() { vm.failed = false }

// Failed reports whether the VM is down.
func (vm *VM) Failed() bool { return vm.failed }

// VMs returns the zone's VMs (including failed ones).
func (az *AZ) VMs() []*VM { return az.vms }

// FailAZ fails every VM in the zone, modeling a zone-wide power outage.
func (az *AZ) FailAZ() {
	for _, vm := range az.vms {
		vm.Fail()
	}
}

// RecoverAZ recovers every VM in the zone.
func (az *AZ) RecoverAZ() {
	for _, vm := range az.vms {
		vm.Recover()
	}
}

// FailRegion fails every VM in every zone — a region evacuation or
// region-wide power event. The federation layer reads the resulting alive
// fraction to gate cross-region spillover.
func (r *Region) FailRegion() {
	for _, az := range r.AZs {
		az.FailAZ()
	}
}

// RecoverRegion recovers every VM in every zone.
func (r *Region) RecoverRegion() {
	for _, az := range r.AZs {
		az.RecoverAZ()
	}
}

// Tenant is a cloud customer owning one VPC. VPC address spaces are private
// and MAY overlap between tenants — the reason the mesh gateway cannot
// distinguish tenants by inner IP alone (§4.2).
type Tenant struct {
	ID   string
	Name string
	VPC  *VPC
}

// VPC is a tenant's virtual private network: a CIDR block plus the VXLAN
// network identifier (VNI) that isolates its traffic on the underlay.
type VPC struct {
	CIDR netip.Prefix
	VNI  uint32

	next netip.Addr
}

// NewTenant creates a tenant with the given VPC CIDR and VNI.
func NewTenant(id, name, cidr string, vni uint32) (*Tenant, error) {
	p, err := netip.ParsePrefix(cidr)
	if err != nil {
		return nil, fmt.Errorf("cloud: tenant %s: %w", id, err)
	}
	return &Tenant{ID: id, Name: name, VPC: &VPC{CIDR: p.Masked(), VNI: vni, next: p.Masked().Addr()}}, nil
}

// AllocIP returns the next unused address in the VPC.
func (v *VPC) AllocIP() (netip.Addr, error) {
	for {
		v.next = v.next.Next()
		if !v.CIDR.Contains(v.next) {
			return netip.Addr{}, fmt.Errorf("cloud: VPC %s exhausted", v.CIDR)
		}
		// Skip the network address; .Next() from the base already did.
		return v.next, nil
	}
}

// Overlaps reports whether two VPCs have overlapping address space. Distinct
// tenants are allowed (and in the experiments, encouraged) to overlap.
func (v *VPC) Overlaps(o *VPC) bool { return v.CIDR.Overlaps(o.CIDR) }

// AliveVMs returns the subset of vms that have not failed, sorted by ID for
// deterministic iteration.
func AliveVMs(vms []*VM) []*VM {
	var alive []*VM
	for _, vm := range vms {
		if !vm.Failed() {
			alive = append(alive, vm)
		}
	}
	sort.Slice(alive, func(i, j int) bool { return alive[i].ID < alive[j].ID })
	return alive
}

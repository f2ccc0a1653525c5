// Multitenant: two tenants whose VPCs use the SAME private address space
// share one mesh gateway. The vSwitch maps each tenant's VXLAN VNI to a
// globally unique service ID (§4.2), so identical inner addresses stay
// isolated; a noisy tenant is then throttled without touching the other.
package main

import (
	"fmt"
	"log"
	"net/netip"
	"time"

	"canalmesh/internal/cloud"
	"canalmesh/internal/gateway"
	"canalmesh/internal/l7"
	"canalmesh/internal/netmodel"
	"canalmesh/internal/overlay"
	"canalmesh/internal/sim"
)

func main() {
	s := sim.New(1)
	region := cloud.NewRegion(s, "cn-hangzhou", "az1", "az2")
	gw := gateway.New(gateway.Config{
		Sim: s, Costs: netmodel.Default(), ShardSize: 2, Seed: 1,
	})
	for i := 0; i < 4; i++ {
		az := region.AZ("az1")
		if i%2 == 1 {
			az = region.AZ("az2")
		}
		if _, err := gw.AddBackend(az, 2, 2, false); err != nil {
			log.Fatal(err)
		}
	}

	// Both tenants use 192.168.0.0/24 — and even the same service IP.
	sharedIP := netip.MustParseAddr("192.168.0.10")
	alpha, err := gw.RegisterService("alpha", "web", 100, sharedIP, 80, false, l7.ServiceConfig{DefaultSubset: "v1"})
	if err != nil {
		log.Fatal(err)
	}
	beta, err := gw.RegisterService("beta", "web", 200, sharedIP, 80, false, l7.ServiceConfig{DefaultSubset: "v1"})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("alpha/web: inner %v:80 VNI 100 -> service ID %d\n", sharedIP, alpha.ID)
	fmt.Printf("beta/web:  inner %v:80 VNI 200 -> service ID %d (same inner address, distinct identity)\n", sharedIP, beta.ID)

	// Show the actual packet path: encapsulated packets from each tenant
	// are disambiguated by the vSwitch before reaching gateway VMs.
	inner := overlay.Inner{Src: netip.MustParseAddr("192.168.0.5"), Dst: sharedIP, SrcPort: 40000, DstPort: 80, Proto: 6}
	for _, vni := range []uint32{100, 200} {
		pkt, err := overlay.Encapsulate(vni, inner, []byte("GET / HTTP/1.1"), 0)
		if err != nil {
			log.Fatal(err)
		}
		vmPkt, err := gw.VSwitch().Ingress(pkt)
		if err != nil {
			log.Fatal(err)
		}
		shim, _, _, err := overlay.ParseVMPacket(vmPkt)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("VNI %d packet -> shim service ID %d at the gateway VM\n", vni, shim.ServiceID)
	}

	// Beta floods; the gateway throttles beta only (§6.2 throttling).
	if err := gw.Throttle(beta.ID, 100, 100); err != nil {
		log.Fatal(err)
	}
	results := map[string]map[int]int{"alpha": {}, "beta": {}}
	s.At(time.Second, func() {
		for i := 0; i < 500; i++ {
			flow := cloud.SessionKey{SrcIP: "10.0.0.1", SrcPort: uint16(i + 1), DstIP: "192.168.0.10", DstPort: 80, Proto: 6}
			req := l7.Request{Method: "GET", Path: "/", BodyBytes: 512}
			gw.Dispatch(alpha.ID, "az1", flow, req, 1, func(_ time.Duration, status int) {
				results["alpha"][status]++
			})
			req2 := l7.Request{Method: "GET", Path: "/", BodyBytes: 512}
			gw.Dispatch(beta.ID, "az1", flow, req2, 1, func(_ time.Duration, status int) {
				results["beta"][status]++
			})
		}
	})
	s.Run()
	fmt.Printf("alpha status codes (untouched):       %v\n", results["alpha"])
	fmt.Printf("beta status codes (throttled to 100): %v\n", results["beta"])
}

// Package integration drives full cross-package scenarios: the byte-level
// data path (mTLS handshake via key server -> AES-GCM record -> VXLAN
// encapsulation -> vSwitch service-ID mapping -> Beamer replica selection ->
// L7 routing), and cloud-scale lifecycles combining the
// gateway, scaling planner, and failure injection.
package integration

import (
	"bytes"
	"fmt"
	"net/netip"
	"strings"
	"testing"
	"time"

	"canalmesh/internal/beamer"
	"canalmesh/internal/cloud"
	"canalmesh/internal/gateway"
	"canalmesh/internal/keyserver"
	"canalmesh/internal/l7"
	"canalmesh/internal/meshcrypto"
	"canalmesh/internal/netmodel"
	"canalmesh/internal/overlay"
	"canalmesh/internal/scaling"
	"canalmesh/internal/sim"
	"canalmesh/internal/workload"
)

// TestPacketPathEndToEnd walks one tenant request through every byte-level
// mechanism of the data plane in order.
func TestPacketPathEndToEnd(t *testing.T) {
	// --- Control plane setup: PKI, key server, channels. ---
	ca, err := meshcrypto.NewCA("tenant1-ca")
	if err != nil {
		t.Fatal(err)
	}
	nodeID, err := ca.IssueIdentity("spiffe://tenant1/sa/node-proxy")
	if err != nil {
		t.Fatal(err)
	}
	gwID, err := ca.IssueIdentity("spiffe://tenant1/sa/gateway")
	if err != nil {
		t.Fatal(err)
	}
	ks, err := keyserver.NewServer("ks-az1")
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []*meshcrypto.Identity{nodeID, gwID} {
		if err := ks.Entrust(id); err != nil {
			t.Fatal(err)
		}
	}
	chN, err := ks.Establish("node-proxy-1")
	if err != nil {
		t.Fatal(err)
	}
	chG, err := ks.Establish("gw-replica-1")
	if err != nil {
		t.Fatal(err)
	}

	// --- Step 1: mTLS handshake, asymmetric phase on the key server. ---
	hello, off, err := meshcrypto.Offer(nodeID.ID, nodeID.CertDER, ca, keyserver.NewRemoteKeyOps("node-proxy-1", chN, ks))
	if err != nil {
		t.Fatal(err)
	}
	sh, acc, err := meshcrypto.Accept(gwID.ID, gwID.CertDER, ca, keyserver.NewRemoteKeyOps("gw-replica-1", chG, ks), hello)
	if err != nil {
		t.Fatal(err)
	}
	nodeSess, fin, _, err := off.Finish(sh)
	if err != nil {
		t.Fatal(err)
	}
	if err := acc.VerifyFinished(fin); err != nil {
		t.Fatal(err)
	}
	gwSess := acc.Session

	// --- Step 2: the on-node proxy encrypts the app's HTTP request. ---
	httpReq := []byte("GET /orders?id=7 HTTP/1.1\r\nHost: web.tenant1\r\n\r\n")
	record := nodeSess.Seal(httpReq)
	if bytes.Contains(record, []byte("orders")) {
		t.Fatal("record must not leak plaintext")
	}

	// --- Step 3: VXLAN encapsulation toward the gateway and back. ---
	inner := overlay.Inner{
		Src:     netip.MustParseAddr("192.168.0.5"),
		Dst:     netip.MustParseAddr("192.168.0.10"),
		SrcPort: 40001, DstPort: 80, Proto: 6,
	}
	wire, err := overlay.Encapsulate(100, inner, record, 9000)
	if err != nil {
		t.Fatal(err)
	}
	hdr, decIn, payload, err := overlay.Decapsulate(wire)
	if err != nil {
		t.Fatal(err)
	}
	if hdr.VNI != 100 || decIn != inner || !bytes.Equal(payload, record) {
		t.Fatal("VXLAN round trip mangled the packet")
	}
	flowKey := cloud.SessionKey{SrcIP: inner.Src.String(), SrcPort: inner.SrcPort, DstIP: inner.Dst.String(), DstPort: inner.DstPort, Proto: 6}

	// --- Step 4: vSwitch maps VNI+destination to the global service ID. ---
	vsw := overlay.NewVSwitch()
	svcID := vsw.Register(overlay.ServiceKey{VNI: 100, DstIP: inner.Dst, DstPort: 80})
	vmPkt, err := vsw.Ingress(wire)
	if err != nil {
		t.Fatal(err)
	}
	shim, gotInner, gotPayload, err := overlay.ParseVMPacket(vmPkt)
	if err != nil {
		t.Fatal(err)
	}
	if shim.ServiceID != svcID || gotInner != inner || !bytes.Equal(gotPayload, payload) {
		t.Fatal("vSwitch mangled the packet")
	}

	// --- Step 5: the redirector (Beamer) picks the serving replica. ---
	bm, err := beamer.New(fmt.Sprint(svcID), []string{"replica-1", "replica-2", "replica-3"}, 64, 4)
	if err != nil {
		t.Fatal(err)
	}
	res, err := bm.Process(flowKey, true)
	if err != nil {
		t.Fatal(err)
	}
	if res.ServedBy == "" {
		t.Fatal("no serving replica")
	}

	// --- Step 6: the replica decrypts and routes at L7. ---
	plain, err := gwSess.Open(gotPayload)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(plain, httpReq) {
		t.Fatal("decrypted request corrupted")
	}
	line := strings.SplitN(string(plain), "\r\n", 2)[0]
	parts := strings.Split(line, " ")
	engine := l7.NewEngine(1)
	if err := engine.Configure(l7.ServiceConfig{
		Service:       fmt.Sprint(svcID),
		DefaultSubset: "v1",
		Rules: []l7.Rule{{
			Name:   "orders",
			Match:  l7.RouteMatch{Path: l7.Prefix("/orders")},
			Splits: []l7.Split{{Subset: "orders-v2", Weight: 1}},
		}},
	}); err != nil {
		t.Fatal(err)
	}
	d, err := engine.Route(0, &l7.Request{Service: fmt.Sprint(svcID), Method: parts[0], Path: strings.SplitN(parts[1], "?", 2)[0]})
	if err != nil {
		t.Fatal(err)
	}
	if d.Subset != "orders-v2" || d.Rule != "orders" {
		t.Fatalf("decision = %+v", d)
	}

	// --- Step 7: the response survives the reverse crypto path. ---
	resp := gwSess.Seal([]byte("HTTP/1.1 200 OK\r\n\r\n{\"order\":7}"))
	back, err := nodeSess.Open(resp)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(back, []byte("200 OK")) {
		t.Fatal("response corrupted")
	}
}

// TestCloudLifecycleEndToEnd runs a region with several tenant services
// through load growth, an AZ outage, and recovery, with sampling and the
// scaling planner active: no service becomes fully unavailable, and the
// planner expands capacity for the hot one.
func TestCloudLifecycleEndToEnd(t *testing.T) {
	s := sim.New(77)
	region := cloud.NewRegion(s, "r1", "az1", "az2")
	g := gateway.New(gateway.Config{Sim: s, Costs: netmodel.Default(), ShardSize: 3, Seed: 77})
	for i := 0; i < 8; i++ {
		az := region.AZ("az1")
		if i%2 == 1 {
			az = region.AZ("az2")
		}
		if _, err := g.AddBackend(az, 1, 2, false); err != nil {
			t.Fatal(err)
		}
	}
	var svcs []*gateway.ServiceState
	for i := 0; i < 5; i++ {
		st, err := g.RegisterService("t1", fmt.Sprintf("svc-%d", i), 100,
			netip.AddrFrom4([4]byte{192, 168, 1, byte(i + 1)}), 80, false, l7.ServiceConfig{DefaultSubset: "v1"})
		if err != nil {
			t.Fatal(err)
		}
		svcs = append(svcs, st)
	}
	end := 120 * time.Second
	g.StartSampling(func() bool { return s.Now() > end+5*time.Second })
	planner := scaling.NewPlanner(s, g, region)

	statuses := map[int]int{}
	drive := func(svc *gateway.ServiceState, rate workload.RateFunc) {
		i := int(svc.ID) << 20
		workload.OpenLoop(s, rate, 10*time.Millisecond, end, func() {
			i++
			flow := cloud.SessionKey{SrcIP: "10.0.0.3", SrcPort: uint16(i%60000 + 1), DstIP: "10.1.0.1", DstPort: 80, Proto: 6}
			g.Dispatch(svc.ID, "az1", flow, l7.Request{Method: "GET", Path: "/", BodyBytes: 1024}, 1, func(_ time.Duration, status int) {
				statuses[status]++
			})
		})
	}
	drive(svcs[0], workload.FlashCrowd(500, 14000, 20*time.Second, 30*time.Second, end)) // the hot one: ramps up, then holds
	for _, svc := range svcs[1:] {
		drive(svc, workload.Constant(200))
	}

	// Backend-level alerting on the hot service's az1-local backend (the
	// dispatch AZ, where its traffic actually lands).
	var hot *gateway.Backend
	for _, b := range svcs[0].Backends {
		if b.AZ == "az1" {
			hot = b
			break
		}
	}
	if hot == nil {
		t.Fatal("hot service has no az1 backend in this seed")
	}
	var lastOp time.Duration = -time.Hour
	s.Every(time.Second, func() bool {
		now := s.Now()
		if now > end {
			return false
		}
		if hot.WaterLevel(now-time.Second) >= 0.7 && now-lastOp > 30*time.Second {
			lastOp = now
			if _, err := planner.HandleAlert(hot, now, nil); err != nil && err != scaling.ErrNoRootCause {
				t.Errorf("HandleAlert: %v", err)
			}
		}
		return true
	})

	// AZ1 outage at t=60s, recovery at t=80s.
	s.At(60*time.Second, func() { region.AZ("az1").FailAZ() })
	s.At(80*time.Second, func() { region.AZ("az1").RecoverAZ() })

	// During the outage, every service must still be served from az1
	// (cross-AZ).
	s.At(70*time.Second, func() {
		for _, svc := range svcs {
			svc := svc
			g.Dispatch(svc.ID, "az1", cloud.SessionKey{SrcIP: "x", SrcPort: 9, DstIP: "y", DstPort: 80, Proto: 6},
				l7.Request{Method: "GET", Path: "/"}, 1, func(_ time.Duration, status int) {
					if status != l7.StatusOK {
						t.Errorf("service %s got %d during the AZ outage", svc.FullName(), status)
					}
				})
		}
	})
	s.Run()

	if statuses[200] == 0 {
		t.Fatal("no successful dispatches")
	}
	okShare := float64(statuses[200]) / float64(statuses[200]+statuses[503])
	if okShare < 0.95 {
		t.Errorf("success share %.3f; hierarchical failover should keep most traffic flowing (statuses %v)", okShare, statuses)
	}
	if len(planner.Events()) == 0 {
		t.Error("planner should have scaled the hot service")
	}
	for _, ev := range planner.Events() {
		if ev.Service != svcs[0].ID {
			t.Errorf("scaled wrong service %d (hot is %d)", ev.Service, svcs[0].ID)
		}
	}
}

// TestMultiTenantIsolationEndToEnd verifies that throttling one tenant
// leaves another tenant's identically-addressed service untouched, and that
// the sandbox pool stays out of both services' shards.
func TestMultiTenantIsolationEndToEnd(t *testing.T) {
	s := sim.New(5)
	region := cloud.NewRegion(s, "r1", "az1")
	g := gateway.New(gateway.Config{Sim: s, Costs: netmodel.Default(), ShardSize: 2, Seed: 5})
	for i := 0; i < 4; i++ {
		if _, err := g.AddBackend(region.AZ("az1"), 1, 2, false); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := g.AddBackend(region.AZ("az1"), 1, 2, true); err != nil {
		t.Fatal(err)
	}
	shared := netip.MustParseAddr("192.168.0.10")
	good, err := g.RegisterService("good", "web", 100, shared, 80, false, l7.ServiceConfig{DefaultSubset: "v1"})
	if err != nil {
		t.Fatal(err)
	}
	evil, err := g.RegisterService("evil", "web", 200, shared, 80, false, l7.ServiceConfig{DefaultSubset: "v1"})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Throttle(evil.ID, 5, 5); err != nil {
		t.Fatal(err)
	}
	okGood, okEvil, throttledEvil := 0, 0, 0
	s.At(time.Second, func() {
		for i := 0; i < 50; i++ {
			flow := cloud.SessionKey{SrcIP: "9.9.9.9", SrcPort: uint16(i + 1), DstIP: shared.String(), DstPort: 80, Proto: 6}
			g.Dispatch(good.ID, "az1", flow, l7.Request{Method: "GET", Path: "/"}, 1, func(_ time.Duration, st int) {
				if st == 200 {
					okGood++
				}
			})
			g.Dispatch(evil.ID, "az1", flow, l7.Request{Method: "GET", Path: "/"}, 1, func(_ time.Duration, st int) {
				switch st {
				case 200:
					okEvil++
				case 429:
					throttledEvil++
				}
			})
		}
	})
	s.Run()
	if okGood != 50 {
		t.Errorf("good tenant served %d/50", okGood)
	}
	if okEvil != 5 || throttledEvil != 45 {
		t.Errorf("throttled tenant: %d served, %d throttled; want its burst of 5 served and 45 throttled", okEvil, throttledEvil)
	}
	// Neither tenant's traffic can land on the sandbox pool: no sandbox
	// backend is in either service's set.
	for _, svc := range []*gateway.ServiceState{good, evil} {
		for _, b := range svc.Backends {
			if b.Sandbox {
				t.Errorf("tenant %s is served by sandbox backend %s", svc.Tenant, b.ID)
			}
		}
	}
}

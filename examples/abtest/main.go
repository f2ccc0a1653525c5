// Abtest: A/B testing, traffic mirroring, and fault injection on the real
// gateway — cookie-pinned experiment groups, a shadow subset receiving
// mirrored production traffic, and a chaos rule aborting a slice of
// requests to verify client resilience.
package main

import (
	"fmt"
	"log"
	"net"
	"net/http"
	"sync/atomic"
	"time"

	canal "canalmesh"
)

func main() {
	gw := canal.NewGatewayServer(7)
	ca, err := canal.NewCA("shop-ca")
	if err != nil {
		log.Fatal(err)
	}
	if err := gw.RegisterTenant("shop", ca); err != nil {
		log.Fatal(err)
	}

	var aHits, bHits, shadowHits atomic.Int64
	variantA := serve("checkout-A", &aHits)
	variantB := serve("checkout-B", &bHits)
	shadow := serve("shadow", &shadowHits)

	err = gw.ConfigureService("shop", canal.ServiceConfig{
		Service:       "checkout",
		DefaultSubset: "A",
		Rules: []canal.Rule{
			{
				// Users in experiment group B (cookie-pinned) see variant B.
				Name:   "exp-group-b",
				Match:  canal.RouteMatch{Cookies: []canal.KVMatch{{Name: "exp", Match: canal.Exact("B")}}},
				Splits: []canal.Split{{Subset: "B", Weight: 1}},
			},
			{
				// Everyone else: variant A, mirrored to the shadow build.
				Name:     "prod-with-shadow",
				MirrorTo: "shadow",
			},
		},
	}, map[string][]string{
		"A": {variantA}, "B": {variantB}, "shadow": {shadow},
	})
	if err != nil {
		log.Fatal(err)
	}

	// A chaos service with 25% injected aborts (fault injection).
	err = gw.ConfigureService("shop", canal.ServiceConfig{
		Service:       "inventory",
		DefaultSubset: "v1",
		Rules: []canal.Rule{{
			Name:  "chaos",
			Fault: &canal.FaultSpec{AbortPercent: 25, AbortStatus: 503},
		}},
	}, map[string][]string{"v1": {variantA}})
	if err != nil {
		log.Fatal(err)
	}

	gwLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	go http.Serve(gwLn, gw)

	id, err := ca.IssueIdentity("spiffe://shop/sa/storefront")
	if err != nil {
		log.Fatal(err)
	}
	agent := canal.NewNodeAgent("shop", id, "http://"+gwLn.Addr().String())

	// Control group traffic.
	for i := 0; i < 100; i++ {
		resp, err := agent.Get("checkout", "/pay")
		if err != nil {
			log.Fatal(err)
		}
		resp.Body.Close()
	}
	// Experiment group traffic (cookie-pinned).
	for i := 0; i < 40; i++ {
		resp, err := agent.Do(http.MethodGet, "checkout", "/pay", nil,
			map[string]string{"Cookie": "exp=B"})
		if err != nil {
			log.Fatal(err)
		}
		resp.Body.Close()
	}
	// Chaos traffic: some requests are aborted by the injected fault.
	aborted := 0
	for i := 0; i < 200; i++ {
		resp, err := agent.Get("inventory", "/stock")
		if err != nil {
			log.Fatal(err)
		}
		if resp.StatusCode == 503 {
			aborted++
		}
		resp.Body.Close()
	}
	time.Sleep(200 * time.Millisecond) // let async mirrors land
	fmt.Printf("variant A served:   %d (control group)\n", aHits.Load())
	fmt.Printf("variant B served:   %d (cookie-pinned experiment group)\n", bHits.Load())
	fmt.Printf("shadow mirrored:    %d (copies of control traffic)\n", shadowHits.Load())
	fmt.Printf("chaos aborts:       %d of 200 (fault injection at 25%%)\n", aborted)
}

func serve(label string, hits *atomic.Int64) string {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	go http.Serve(ln, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		fmt.Fprintln(w, label)
	}))
	return "http://" + ln.Addr().String()
}

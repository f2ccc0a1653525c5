// Quickstart: run the Canal mesh gateway in-process as a real multi-tenant
// HTTP gateway, register a tenant with a canary traffic split, and send
// signed requests through a NodeAgent — the complete sidecar-free data path
// on one machine.
package main

import (
	"fmt"
	"log"
	"net"
	"net/http"

	canal "canalmesh"
)

func main() {
	// 1. The centralized mesh gateway (one per cloud, shared by tenants).
	gw := canal.NewGatewayServer(42)
	gw.RequireAuth = true
	gwLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	go http.Serve(gwLn, gw)
	gwURL := "http://" + gwLn.Addr().String()
	fmt.Println("mesh gateway listening on", gwURL)

	// 2. A tenant with its own trust domain.
	ca, err := canal.NewCA("acme-ca")
	if err != nil {
		log.Fatal(err)
	}
	if err := gw.RegisterTenant("acme", ca); err != nil {
		log.Fatal(err)
	}

	// 3. Two versions of the tenant's web service as real upstreams.
	v1 := serve("v1: stable")
	v2 := serve("v2: canary build")

	// 4. Traffic policy: 90/10 canary split, beta users pinned to v2.
	err = gw.ConfigureService("acme", canal.ServiceConfig{
		Service:       "web",
		DefaultSubset: "v1",
		Rules: []canal.Rule{
			{
				Name:   "beta-users",
				Match:  canal.RouteMatch{Headers: []canal.KVMatch{{Name: "X-User-Group", Match: canal.Exact("beta")}}},
				Splits: []canal.Split{{Subset: "v2", Weight: 1}},
			},
			{
				Name:   "canary",
				Splits: []canal.Split{{Subset: "v1", Weight: 90}, {Subset: "v2", Weight: 10}},
			},
		},
	}, map[string][]string{"v1": {v1}, "v2": {v2}})
	if err != nil {
		log.Fatal(err)
	}

	// 5. A workload identity and its on-node agent (the only mesh component
	// on the user's node — no sidecar).
	id, err := ca.IssueIdentity("spiffe://acme/ns/default/sa/frontend")
	if err != nil {
		log.Fatal(err)
	}
	agent := canal.NewNodeAgent("acme", id, gwURL)

	// 6. Drive traffic: observe the canary split.
	counts := map[string]int{}
	for i := 0; i < 200; i++ {
		resp, err := agent.Get("web", "/checkout")
		if err != nil {
			log.Fatal(err)
		}
		counts[resp.Header.Get("X-Served-By")]++
		resp.Body.Close()
	}
	fmt.Printf("canary split over 200 requests: %v (expect ~90/10)\n", counts)

	// A beta user always lands on v2.
	resp, err := agent.Do(http.MethodGet, "web", "/checkout", nil, map[string]string{"X-User-Group": "beta"})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("beta user served by: %s\n", resp.Header.Get("X-Served-By"))
	resp.Body.Close()

	fmt.Printf("gateway access log entries: %d\n", gw.AccessLog().Len())
}

// serve starts an upstream that labels its responses.
func serve(label string) string {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	go http.Serve(ln, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("X-Served-By", label)
		fmt.Fprintln(w, label)
	}))
	return "http://" + ln.Addr().String()
}

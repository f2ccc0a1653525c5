package canal_test

import (
	"fmt"
	"log"
	"net/http"
	"net/http/httptest"

	canal "canalmesh"
)

// Example runs the complete real-mode data path: a multi-tenant gateway, a
// tenant trust domain, one upstream, and a signed request from a NodeAgent.
func Example() {
	// The centralized mesh gateway (shared by all tenants).
	gw := canal.NewGatewayServer(1)
	gw.RequireAuth = true
	gwSrv := httptest.NewServer(gw)
	defer gwSrv.Close()

	// One tenant with its own CA.
	ca, err := canal.NewCA("acme-ca")
	if err != nil {
		log.Fatal(err)
	}
	if err := gw.RegisterTenant("acme", ca); err != nil {
		log.Fatal(err)
	}

	// The tenant's service and upstream pool.
	upstream := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, "hello from v1")
	}))
	defer upstream.Close()
	if err := gw.ConfigureService("acme", canal.ServiceConfig{
		Service:       "web",
		DefaultSubset: "v1",
	}, map[string][]string{"v1": {upstream.URL}}); err != nil {
		log.Fatal(err)
	}

	// A workload identity and its on-node agent: no sidecar anywhere.
	id, err := ca.IssueIdentity("spiffe://acme/ns/default/sa/frontend")
	if err != nil {
		log.Fatal(err)
	}
	agent := canal.NewNodeAgent("acme", id, gwSrv.URL)
	resp, err := agent.Get("web", "/hello")
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	fmt.Println("status:", resp.StatusCode)
	// Output: status: 200
}

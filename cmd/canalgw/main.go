// Command canalgw runs the Canal mesh gateway as a real multi-tenant HTTP
// server, with a built-in demo tenant so it can be exercised immediately:
//
//	canalgw -listen :8080
//
// starts the gateway plus two demo upstream services (v1 and v2 of
// demo/web, split 90/10) and prints a signed curl-equivalent request made
// through a NodeAgent. Point real upstreams at it with -config (see
// examples/quickstart for programmatic use).
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"

	canal "canalmesh"
	"canalmesh/internal/admission"
)

func main() {
	listen := flag.String("listen", "127.0.0.1:8080", "gateway listen address")
	demo := flag.Bool("demo", true, "start demo tenant and upstreams")
	configPath := flag.String("config", "", "JSON deployment config (tenants/services/pools); see testdata/gateway.json")
	admit := flag.Bool("admission", false, "enable adaptive admission control (AIMD concurrency limit, per-tenant fair shares, retry budgets); a config file's admission block overrides this")
	flag.Parse()

	// Bind first: the demo request dials the listener's real address (an
	// ephemeral :0 port included), and a connection made before Serve runs
	// waits in the accept queue instead of being refused.
	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		log.Fatalf("canalgw: %v", err)
	}

	gw := canal.NewGatewayServer(1)
	gw.RequireAuth = true
	if *admit {
		gw.EnableAdmission(admission.Config{})
	}

	if *configPath != "" {
		cfg, err := canal.LoadConfigFile(*configPath)
		if err != nil {
			log.Fatalf("canalgw: %v", err)
		}
		cas, err := cfg.Apply(gw)
		if err != nil {
			log.Fatalf("canalgw: applying config: %v", err)
		}
		for tenant := range cas {
			log.Printf("canalgw: tenant %s provisioned (fresh CA; issue identities via the canal API)", tenant)
		}
	} else if *demo {
		if err := setupDemo(gw, ln.Addr().String()); err != nil {
			log.Fatalf("canalgw: demo setup: %v", err)
		}
	}
	log.Printf("canalgw: mesh gateway listening on %s", ln.Addr())
	log.Fatal(http.Serve(ln, gw))
}

// setupDemo provisions tenant "demo" with service "web" (90/10 canary) and
// two local upstreams, then issues one signed request through the mesh.
func setupDemo(gw *canal.GatewayServer, gwAddr string) error {
	ca, err := canal.NewCA("demo-ca")
	if err != nil {
		return err
	}
	if err := gw.RegisterTenant("demo", ca); err != nil {
		return err
	}

	v1, err := startUpstream("v1 says hello")
	if err != nil {
		return err
	}
	v2, err := startUpstream("v2 says hello (canary)")
	if err != nil {
		return err
	}
	err = gw.ConfigureService("demo", canal.ServiceConfig{
		Service:       "web",
		DefaultSubset: "v1",
		Rules: []canal.Rule{{
			Name:   "canary",
			Splits: []canal.Split{{Subset: "v1", Weight: 90}, {Subset: "v2", Weight: 10}},
		}},
	}, map[string][]string{"v1": {v1}, "v2": {v2}})
	if err != nil {
		return err
	}

	id, err := ca.IssueIdentity("spiffe://demo/ns/default/sa/client")
	if err != nil {
		return err
	}
	go func() {
		agent := canal.NewNodeAgent("demo", id, "http://"+gwAddr)
		resp, err := agent.Get("web", "/hello")
		if err != nil {
			log.Printf("canalgw: demo request failed: %v", err)
			return
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		log.Printf("canalgw: demo request through the mesh -> %d %q", resp.StatusCode, body)
	}()
	log.Printf("canalgw: demo tenant ready: upstreams %s (v1), %s (v2)", v1, v2)
	return nil
}

// startUpstream serves a fixed message on an ephemeral port.
func startUpstream(msg string) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	go func() {
		_ = http.Serve(ln, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			fmt.Fprintln(w, msg)
		}))
	}()
	return "http://" + ln.Addr().String(), nil
}

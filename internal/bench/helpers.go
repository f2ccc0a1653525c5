package bench

import (
	"context"
	"fmt"
	"net/netip"
	"runtime"
	"strconv"
	"sync"

	"canalmesh/internal/cloud"
	"canalmesh/internal/gateway"
	"canalmesh/internal/l7"
	"canalmesh/internal/netmodel"
	"canalmesh/internal/sim"
)

// ForEachPoint runs fn(i) for every i in [0, n) on a bounded worker pool
// (min(GOMAXPROCS, n) workers) and waits for all scheduled points to finish.
// It is the intra-experiment parallel-sweep helper: each point must be
// independent — build its own seeded Sim/Scenario — and deposit its output
// into an index-keyed slot, so that assembling the Result afterwards in index
// order renders byte-identically to a serial loop. Once ctx is cancelled,
// not-yet-started points are skipped (fn never observes a cancelled start);
// the caller's partial result is discarded by the Runner in that case.
func ForEachPoint(ctx context.Context, n int, fn func(i int)) {
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				if ctx.Err() != nil {
					continue // drain remaining points without running them
				}
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		idx <- i
	}
	close(idx)
	wg.Wait()
}

// newTenant returns a fresh benchmark tenant with a /8 VPC.
func newTenant() (*cloud.Tenant, error) {
	return cloud.NewTenant("bench-t1", "bench", "10.0.0.0/8", 100)
}

// gatewayScenario is a ready-to-drive mesh-gateway deployment: a two-AZ
// region, a gateway with regular and sandbox backends, and n registered
// tenant services.
type gatewayScenario struct {
	Sim      *sim.Sim
	Region   *cloud.Region
	GW       *gateway.Gateway
	Services []*gateway.ServiceState
}

// newGatewayScenario builds the standard cloud-scale scenario used by the
// Fig 16-20 experiments.
func newGatewayScenario(seed int64, backends, replicasPerBE, coresPerReplica, services int) *gatewayScenario {
	s := sim.New(seed)
	region := cloud.NewRegion(s, "r1", "az1", "az2")
	g := gateway.New(gateway.Config{
		Sim: s, Costs: netmodel.Default(), Engine: l7.NewEngine(seed),
		ShardSize: 3, Seed: seed,
	})
	for i := 0; i < backends; i++ {
		az := region.AZ("az1")
		if i%2 == 1 {
			az = region.AZ("az2")
		}
		if _, err := g.AddBackend(az, replicasPerBE, coresPerReplica, false); err != nil {
			panic(err)
		}
	}
	if _, err := g.AddBackend(region.AZ("az1"), replicasPerBE, coresPerReplica, true); err != nil {
		panic(err)
	}
	sc := &gatewayScenario{Sim: s, Region: region, GW: g}
	for i := 0; i < services; i++ {
		addr := netip.AddrFrom4([4]byte{192, 168, byte(i / 250), byte(i%250 + 1)})
		st, err := g.RegisterService("tenant1", fmt.Sprintf("svc-%d", i), 100, addr, 80, i%3 == 0,
			l7.ServiceConfig{DefaultSubset: "v1"})
		if err != nil {
			panic(err)
		}
		sc.Services = append(sc.Services, st)
	}
	return sc
}

// dispatchFlow builds a distinct flow key per call index. Its source IP is
// 10.9.<(i/250)%250>.<i%250>, formatted into a stack buffer.
func dispatchFlow(i int) cloud.SessionKey {
	var buf [16]byte
	ip := append(buf[:0], "10.9."...)
	ip = strconv.AppendInt(ip, int64((i/250)%250), 10)
	ip = append(ip, '.')
	ip = strconv.AppendInt(ip, int64(i%250), 10)
	return cloud.SessionKey{
		SrcIP: string(ip), SrcPort: uint16(i%60000 + 1024),
		DstIP: "10.1.0.1", DstPort: 80, Proto: 6,
	}
}

// gwRequest returns a routable request for gateway dispatch.
func gwRequest() *l7.Request {
	return &l7.Request{Tenant: "tenant1", SourceService: "client", Method: "GET", Path: "/", BodyBytes: 1024}
}
